"""The six query families, each written once.

One class per family is its whole access path.  Its static
``path(query)`` and ``details(query)`` are what plain EXPLAIN prints.  An
instance — a leaf, built by :func:`prepare` with the serial validation
and charges in their one order — is a prepared query:
``task(slice) -> payload`` is its scan or probe on one
:class:`~repro.core.slice.CatalogSlice` (the platform's, or a shard's);
``merge(payloads) -> Answer`` orders the payloads (shards are a disjoint
cover, and one payload is left as it is); ``survives(ShardStats)``
prunes soundly; ``fallback(payloads)`` is the visual top-k's exhaustive
fallback, a task to run instead or ``None``.  Serial execution runs the
task on the platform's slice, the shard router on every shard the leaf
survives on.  A general hybrid is its parts' leaves and
:func:`~repro.core.queries.combine_hybrid`; the fused spatial-visual
pair is one leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.queries import (
    Answer,
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    combine_hybrid,
)
from repro.core.slice import CatalogSlice
from repro.errors import MalformedQueryError, QueryError
from repro.geo.point import BoundingBox
from repro.index.inverted import tokenize
from repro.index.lsh import LSHIndex, falls_back, squared_norm
from repro.index.ordering import by_distance, by_score
from repro.obs.accounting import charge

if TYPE_CHECKING:
    from repro.core.platform import TVDP
    from repro.features.base import FeatureExtractor


@dataclass(frozen=True)
class ShardStats:
    """What a geo-tile shard publishes for pruning, at partition time
    (:mod:`repro.shard.partition`); summed over **all** shards, pruned
    ones too, ``term_dfs`` and ``text_docs`` give the serial idf."""

    shard_id: int
    n_images: int
    bounds: BoundingBox | None  # every FOV and camera point; None: empty
    text_docs: int
    term_dfs: dict  # term -> document frequency
    time_ranges: dict  # temporal field -> (min, max)
    annotation_types: dict  # type_id -> annotation count
    extractors: tuple  # extractor names with vectors indexed here


class Leaf:
    """A prepared query.  Without a platform, the plan alone: nothing
    extracted, resolved or charged, and it prunes without those."""

    __slots__ = ("query",)
    parts: tuple = ()  # a general hybrid's leaves: merge takes their answers

    def __init__(self, query, platform: TVDP | None = None, stats: list | None = None) -> None:
        self.query = query

    children = staticmethod(lambda query: ())  # what EXPLAIN nests under the node

    def fallback(self, payloads: list):
        return None


class _Ids(Leaf):
    __slots__ = ()

    @staticmethod
    def merge(payloads: list) -> Answer:
        """Ascending id columns: more than one are joined, sorted once."""
        if len(payloads) == 1:
            return Answer(payloads[0].tolist())
        return Answer(np.sort(np.concatenate(payloads)).tolist() if payloads else [])


class Spatial(_Ids):
    __slots__ = ("region",)

    def __init__(self, query: SpatialQuery, platform=None, stats=None) -> None:
        self.query, self.region = query, query.bounding_region()

    @staticmethod
    def path(query: SpatialQuery) -> str:
        # A camera inside the region makes its FOV intersect it: no refine.
        return "columns.camera_scan" if query.mode == "camera" else "columns.scene_scan"

    @staticmethod
    def details(query: SpatialQuery) -> dict:
        details: dict = {"mode": query.mode}
        if query.direction_deg is not None:
            tolerance = query.direction_tolerance_deg
            details["direction_filter"] = f"{query.direction_deg:.0f}deg +/- {tolerance:.0f}"
        details["refine"] = "none" if query.mode == "camera" else "fov_sector"
        return details

    def task(self, s: CatalogSlice) -> np.ndarray:
        return s.spatial_ids(self.query)

    def survives(self, stats: ShardStats) -> bool:
        return stats.bounds is not None and stats.bounds.intersects(self.region)


class Temporal(_Ids):
    __slots__ = ()

    @staticmethod
    def path(query: TemporalQuery) -> str:
        return f"images.ordered_columns[{query.field}]"

    @staticmethod
    def details(query: TemporalQuery) -> dict:
        return {"field": query.field, "start": query.start, "end": query.end}

    def task(self, s: CatalogSlice) -> np.ndarray:
        return s.temporal_ids(self.query)

    def survives(self, stats: ShardStats) -> bool:
        query, window = self.query, stats.time_ranges.get(self.query.field)
        return (
            window is not None
            and (query.end is None or window[0] <= query.end)
            and (query.start is None or query.start <= window[1])
        )


class Categorical(Leaf):
    __slots__ = ("type_ids",)

    def __init__(self, query: CategoricalQuery, platform: TVDP | None = None, stats=None) -> None:
        self.query = query
        # Labels resolve in label order: the first unknown one raises.
        self.type_ids = None if platform is None else tuple(
            platform.catalog.type_id(query.classification, label) for label in query.labels
        )

    path = staticmethod(lambda query: "columns.label_scan")

    @staticmethod
    def details(query: CategoricalQuery) -> dict:
        return {
            "classification": query.classification,
            "labels": ",".join(query.labels),
            "min_confidence": query.min_confidence,
        }

    def task(self, s: CatalogSlice) -> tuple[np.ndarray, np.ndarray]:
        return s.best_confidence(self.type_ids, self.query.min_confidence, self.query.source)

    def survives(self, stats: ShardStats) -> bool:
        counts = stats.annotation_types
        return self.type_ids is None or any(counts.get(t, 0) > 0 for t in self.type_ids)

    @staticmethod
    def merge(payloads: list) -> Answer:
        """(ids ascending, best confidence of each) columns, by id."""
        ids, best = _columns(payloads)
        if len(payloads) > 1:
            order = np.argsort(ids)
            ids, best = ids[order], best[order]
        return Answer(ids.tolist(), best.tolist())


class Textual(Leaf):
    __slots__ = ("terms", "idf")

    def __init__(self, query: TextualQuery, platform=None, stats=None) -> None:
        self.query, self.terms = query, tokenize(query.text)
        # One slice scores with its own idf; shards with the catalog's.
        self.idf = None if stats is None else global_idf(self.terms, stats)

    @staticmethod
    def path(query: TextualQuery) -> str:
        return f"inverted_index.postings_columns[{query.match}]"

    @staticmethod
    def details(query: TextualQuery) -> dict:
        return {"terms": query.text}

    def task(self, s: CatalogSlice) -> tuple[np.ndarray, np.ndarray]:
        return s.text.scores(self.terms, self.query.match, self.idf)

    def survives(self, stats: ShardStats) -> bool:
        every, dfs = all if self.query.match == "all" else any, stats.term_dfs
        return bool(self.terms) and every(dfs.get(term, 0) > 0 for term in self.terms)

    @staticmethod
    def merge(payloads: list) -> Answer:
        """(ids, tf-idf scores) columns, ranked once."""
        return Answer(*by_score(*_columns(payloads)))


class Visual(Leaf):
    __slots__ = ("vector", "keys", "whole")

    def __init__(self, query: VisualQuery, platform: TVDP | None = None, stats=None) -> None:
        self.query = query
        # A top-k on one slice: its candidates are all of them.
        self.whole = stats is None and query.max_distance is None
        if platform is not None:
            self.vector = prepare_visual(query, platform)
            # Every shard's index is a clone_empty of the platform's: its
            # keys are theirs, so a query is hashed once, not per slice.
            lsh: LSHIndex = platform.slice.lsh(query.extractor_name)
            self.keys = lsh.bucket_keys(self.vector)

    @staticmethod
    def path(query: VisualQuery) -> str:
        if query.max_distance is None:
            return "lsh.query_topk (exhaustive fallback)"
        return "lsh.query_radius"

    @staticmethod
    def details(query: VisualQuery) -> dict:
        details = {"extractor": query.extractor_name, "k": query.k}
        if query.max_distance is not None:
            details["radius"] = query.max_distance
        return details

    def task(self, s: CatalogSlice) -> tuple[tuple, int]:
        """The ``k`` nearest candidates as ``(ids, distances)`` columns
        (the radius cut at ``k``: the ``k`` nearest cut at it) and their
        count; none if a scan must."""
        lsh: LSHIndex = s.lsh(self.query.extractor_name)
        if self.whole:
            return lsh.topk_unless_short(self.keys, self.vector, self.query.k)
        return lsh.topk_in_buckets(self.keys, self.vector, self.query.k)

    def survives(self, stats: ShardStats) -> bool:
        return self.query.extractor_name in stats.extractors

    def fallback(self, payloads: list):
        """:meth:`scan` instead if a top-k's candidates over all slices
        fall short — ``lsh_fallback`` on the span (any, over several)."""
        if self.query.max_distance is not None:
            return None
        fell = falls_back(sum(count for _, count in payloads), self.query.k)
        span = obs.current_span()
        if span is not None:
            span.set("lsh_fallback", fell or span.attrs.get("lsh_fallback", False))
        return self.scan if fell else None

    def scan(self, s: CatalogSlice) -> tuple[tuple, int]:
        lsh: LSHIndex = s.lsh(self.query.extractor_name)
        return lsh.scan_topk(self.vector, self.query.k), 0

    def merge(self, payloads: list) -> Answer:
        query = self.query
        return _nearest([columns for columns, _ in payloads], query.k, query.max_distance)


class SpatialVisual(Leaf):
    """The fused hybrid: the point columns filtered by the region, the
    survivors' vectors ranked — one pass per slice."""

    __slots__ = ("spatial", "visual", "vector")

    def __init__(self, query: HybridQuery, platform: TVDP | None = None, stats=None) -> None:
        spatial, visual = query.fused_pair()
        self.query, self.spatial, self.visual = query, Spatial(spatial), Visual(visual)
        if platform is not None:
            self.vector = prepare_visual(visual, platform)

    path = staticmethod(lambda query: "columns.filter_then_rank (region filter, then exact top-k)")

    @staticmethod
    def details(query: HybridQuery) -> dict:
        _, visual = query.fused_pair()
        return {"extractor": visual.extractor_name, "k": visual.k}

    children = staticmethod(HybridQuery.fused_pair)

    def task(self, s: CatalogSlice) -> tuple[np.ndarray, np.ndarray]:
        name, k = self.visual.query.extractor_name, self.visual.query.k
        return s.spatial_visual_nearest(name, self.spatial.region, self.vector, k)

    def survives(self, stats: ShardStats) -> bool:
        return self.spatial.survives(stats) and self.visual.survives(stats)

    def merge(self, payloads: list) -> Answer:
        visual = self.visual.query
        return _nearest(payloads, visual.k, visual.max_distance)


class Conjunction(Leaf):
    """A general hybrid: each part answered alone over its whole pool (a
    top-k part depends on it, so no sibling narrows it), intersected."""

    __slots__ = ("parts",)

    def __init__(self, query: HybridQuery, platform=None, stats=None) -> None:
        self.query = query
        self.parts = tuple(prepare(part, platform, stats) for part in query.queries)

    path = staticmethod(lambda query: "intersect(sub-results)")
    details = staticmethod(lambda query: {"parts": len(query.queries)})

    children = staticmethod(lambda query: tuple(query.queries))

    def survives(self, stats: ShardStats) -> bool:
        return any(part.survives(stats) for part in self.parts)

    @staticmethod
    def merge(answers: list) -> Answer:
        return combine_hybrid(answers)


#: Query class -> its family's leaf class (a hybrid: see :func:`leaf_class`).
FAMILIES: dict = {
    SpatialQuery: Spatial,
    VisualQuery: Visual,
    CategoricalQuery: Categorical,
    TextualQuery: Textual,
    TemporalQuery: Temporal,
    HybridQuery: Conjunction,
}


def leaf_class(query: object) -> type:
    """The class that answers ``query``; a hybrid of exactly one
    spatial and one visual part is the fused one."""
    cls = FAMILIES.get(type(query))
    if cls is None:
        raise QueryError(f"unsupported query type {type(query).__name__}")
    if cls is Conjunction and query.fused_pair() is not None:
        return SpatialVisual
    return cls


def prepare(query: object, platform: TVDP | None = None, stats: list | None = None) -> Leaf:
    """``query``'s leaf, prepared on ``platform`` — given ``stats``, to
    run on those shards; given no platform, the plan alone."""
    return leaf_class(query)(query, platform, stats)


def prepare_visual(query: VisualQuery, platform: TVDP) -> np.ndarray:
    """The query's float64 vector (an example run through the extractor,
    which must be indexed), its ``feature_bytes`` charged.  It must have
    the index's dimension and a finite squared norm — NaN, infinity and
    overflow all show there — else :class:`MalformedQueryError`."""
    dimension = platform.slice.lsh(query.extractor_name).dimension
    vector, sq_norm = query.vector, query.sq_norm
    if vector is None:
        extractor: FeatureExtractor = platform.features.get(query.extractor_name)
        vector = np.asarray(extractor.extract(query.example), dtype=np.float64).ravel()
        sq_norm = squared_norm(vector)
    if vector.shape[0] != dimension:
        raise MalformedQueryError(
            f"{query.extractor_name!r} vectors are {dimension}-D, got {vector.shape[0]}-D"
        )
    if not math.isfinite(sq_norm):
        raise MalformedQueryError("query vector must be finite, and its squared norm too")
    charge("feature_bytes", vector.nbytes)
    return vector


def global_idf(terms: list, stats: list) -> dict:
    """Term -> idf over the whole catalog, for the terms any shard
    lists: ``N`` and each document frequency summed over every shard's
    stats, so each shard scores (in sorted-term order, as the serial
    index does) to the serial floats, whatever was pruned."""
    total_docs = sum(s.text_docs for s in stats)
    dfs = {term: sum(s.term_dfs.get(term, 0) for s in stats) for term in terms}
    return {term: math.log(1.0 + total_docs / df) for term, df in dfs.items() if df}


def _columns(payloads: list) -> tuple:
    """``(ids, values)`` payloads joined end to end (none: both empty)."""
    if len(payloads) == 1:
        return payloads[0]
    ids, values = zip(*payloads) if payloads else ((np.empty(0, np.int64),), (np.empty(0),))
    return np.concatenate(ids), np.concatenate(values)


def _nearest(payloads: list, k: int, radius: float | None) -> Answer:
    """The ``k`` best of ranked ``(ids, distances)`` payloads, cut at
    ``radius``: more than one are joined and ordered once."""
    if len(payloads) == 1:
        ids, distances = payloads[0]  # ranked, and at most k, where it was made
    else:
        ids, distances = by_distance(*_columns(payloads), k)
    if radius is not None:
        within = distances <= radius
        ids, distances = ids[within], distances[within]
    return Answer.from_distances(ids, distances)
