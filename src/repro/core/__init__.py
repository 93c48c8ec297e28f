"""Platform core: the TVDP facade, the catalog slice (rows + index suite)
it serves, queries, catalog, annotations."""

from repro.core.queries import (
    CategoricalQuery,
    HybridQuery,
    QueryResult,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    query_family,
)
from repro.core.catalog import ClassificationCatalog
from repro.core.annotations import Annotation, AnnotationService
from repro.core.slice import CatalogSlice
from repro.core.platform import TVDP, UploadReceipt
from repro.core.video import (
    ingest_video,
    select_keyframes_adaptive,
    select_keyframes_uniform,
)
from repro.core.persistence import load_platform, save_platform
from repro.core.planner import QueryPlan, explain

__all__ = [
    "QueryResult",
    "SpatialQuery",
    "VisualQuery",
    "CategoricalQuery",
    "TextualQuery",
    "TemporalQuery",
    "HybridQuery",
    "ClassificationCatalog",
    "Annotation",
    "AnnotationService",
    "CatalogSlice",
    "TVDP",
    "UploadReceipt",
    "ingest_video",
    "select_keyframes_uniform",
    "select_keyframes_adaptive",
    "save_platform",
    "load_platform",
    "QueryPlan",
    "explain",
    "query_family",
]
