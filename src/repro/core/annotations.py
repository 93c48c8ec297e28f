"""Annotation service: human/machine labels as shared knowledge.

This is where TVDP becomes *translational*: "once the classification of
new unlabeled images is done, the results are annotated as an augmented
knowledge of the original images in the database.  Then, it can be
shared and utilized for other independent analysis ... by any
interested parties."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.db.database import Database
from repro.geo.point import GeoPoint
from repro.core.catalog import ClassificationCatalog
from repro.core.slice import CatalogSlice


@dataclass(frozen=True)
class Annotation:
    """A label attached to an image, with provenance."""

    annotation_id: int
    image_id: int
    classification: str
    label: str
    confidence: float
    source: str
    annotator: str | None
    created_at: float
    bbox: dict | None = None


class AnnotationService:
    """CRUD + query layer over ``image_content_annotation``."""

    def __init__(self, catalog_slice: CatalogSlice, catalog: ClassificationCatalog) -> None:
        self._slice = catalog_slice
        self._db: Database = catalog_slice.db
        self._catalog = catalog

    def annotate(
        self,
        image_id: int,
        classification: str,
        label: str,
        confidence: float = 1.0,
        source: str = "human",
        annotator: str | None = None,
        created_at: float = 0.0,
        bbox: dict | None = None,
    ) -> int:
        """Attach a label to an image; returns the annotation id."""
        if source not in ("human", "machine"):
            raise QueryError(f"source must be human or machine, got {source!r}")
        if not (0.0 <= confidence <= 1.0):
            raise QueryError(f"confidence must be in [0, 1], got {confidence}")
        type_id = self._catalog.type_id(classification, label)
        annotation_id = self._db.insert(
            "image_content_annotation",
            {
                "image_id": image_id,
                "type_id": type_id,
                "confidence": float(confidence),
                "source": source,
                "bbox": bbox,
                "annotator": annotator,
                "created_at": float(created_at),
            },
        )
        self._slice.index_annotation(image_id, type_id, float(confidence), source)
        return annotation_id

    def _to_annotation(self, row: dict) -> Annotation:
        classification, label = self._catalog.label_of_type(row["type_id"])
        return Annotation(
            annotation_id=row["annotation_id"],
            image_id=row["image_id"],
            classification=classification,
            label=label,
            confidence=row["confidence"],
            source=row["source"],
            annotator=row["annotator"],
            created_at=row["created_at"],
            bbox=row["bbox"],
        )

    def annotations_of(self, image_id: int) -> list[Annotation]:
        """Every annotation on one image (all classifications)."""
        rows = self._db.table("image_content_annotation").find("image_id", image_id)
        return [self._to_annotation(row) for row in rows]

    def images_with_label(
        self,
        classification: str,
        labels: tuple[str, ...] | list[str],
        min_confidence: float = 0.0,
        source: str | None = None,
    ) -> dict[int, float]:
        """Image id -> best confidence for any of ``labels``.

        This is the categorical-query primitive, and the translational
        entry point: the homeless study calls it with
        ``("encampment",)`` over the street-cleanliness classification.
        """
        ids, best = self.best_confidence(classification, labels, min_confidence, source)
        return dict(zip(ids.tolist(), best.tolist()))

    def best_confidence(
        self,
        classification: str,
        labels: tuple[str, ...] | list[str],
        min_confidence: float = 0.0,
        source: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`images_with_label` as columns: the image ids ascending
        and the best confidence of each."""
        type_ids = [self._catalog.type_id(classification, label) for label in labels]
        return self._slice.best_confidence(type_ids, min_confidence, source)

    def label_locations(
        self,
        classification: str,
        label: str,
        min_confidence: float = 0.0,
    ) -> list[tuple[int, GeoPoint]]:
        """Camera locations of images labelled ``label`` — the input to
        downstream spatial studies (tent clustering, hotspot maps)."""
        hits = self.images_with_label(classification, (label,), min_confidence)
        images = self._db.table("images")
        return [
            (image_id, GeoPoint(row["lat"], row["lng"]))
            for image_id in sorted(hits)
            for row in [images.get(image_id)]
        ]

    def label_histogram(self, classification: str) -> dict[str, int]:
        """Label -> annotation count for one classification."""
        out: dict[str, int] = {}
        for label in self._catalog.labels(classification):
            type_id = self._catalog.type_id(classification, label)
            out[label] = self._slice.annotation_count(type_id)
        return out
