"""The six query families, each written once.

One class per family is its whole access path.  Its static
``path(query)`` and ``details(query)`` are what plain EXPLAIN prints.  An
instance — a leaf, built by :func:`prepare` with the serial validation
and charges in their one order — is a prepared query:
``task(s, owns=None) -> payload`` is its scan or probe on the platform's
:class:`~repro.core.slice.CatalogSlice`, over every row or — given
``owns``, a map from an id column to a mask — over the rows of the
images it keeps; ``answer(payload) -> Answer`` orders the payload;
``survivors(cut) -> int`` prunes soundly: one call per leaf, the
bitmask (bit ``s``: shard ``s``) of the non-empty shards of a
:class:`~repro.shard.partition.Partition` it cannot rule out, read off
the cut's per-shard tuples and per-key masks.  Everything a query
needs from the whole catalog — a visual query's hash candidates and its
exhaustive-fallback decision included — is worked out when the leaf is
prepared, once.  :func:`run_leaf` is the one runner: each part once,
over the rows its owner mask keeps.  Serial execution gives no masks —
the whole slice; the shard router gives a part one only when a shard it
survives on was lost (sound pruning leaves nothing of a pruned shard to
find): the rows of its survivors that answered (shards are disjoint row
sets of the one catalog, so that one pass is what merging a pass per
shard would give); a part that no answering shard holds, a mask that
keeps no row, under which a pass moves no counter and bills nothing.  A
general hybrid is its parts' leaves and
:func:`~repro.core.queries.combine_hybrid`; the fused spatial-visual
pair is one leaf.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import and_, or_
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
    query_family,
)
from repro.core.slice import CatalogSlice
from repro.errors import MalformedQueryError, QueryError
from repro.index.inverted import tokenize
from repro.index.lsh import falls_back, squared_norm
from repro.index.ordering import by_score
from repro.obs.accounting import charge

if TYPE_CHECKING:
    from repro.core.platform import TVDP
    from repro.features.base import FeatureExtractor


class Leaf:
    """A prepared query.  Without a platform, the plan alone: nothing
    extracted, resolved or charged, and it prunes without those."""

    __slots__ = ("query",)
    parts: tuple = ()  # a general hybrid's leaves: answer takes their answers

    def __init__(self, query, platform: TVDP | None = None) -> None:
        self.query = query


class _Ids(Leaf):
    __slots__ = ()

    @staticmethod
    def answer(payload: np.ndarray) -> Answer:
        """An ascending id column, unranked."""
        return Answer(payload.tolist())


class Spatial(_Ids):
    __slots__ = ("region",)

    def __init__(self, query: SpatialQuery, platform=None) -> None:
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

    def task(self, s: CatalogSlice, owns=None) -> np.ndarray:
        return s.spatial_ids(self.query, owns)

    def survivors(self, cut) -> int:
        region, mask = self.region, 0
        for shard, box in enumerate(cut.bounds):
            # BoundingBox.intersects(box, region), on the bounds tuple.
            if box is not None and not (
                region.min_lat > box[2]
                or region.max_lat < box[0]
                or region.min_lng > box[3]
                or region.max_lng < box[1]
            ):
                mask |= 1 << shard
        return mask


class Temporal(_Ids):
    __slots__ = ()

    @staticmethod
    def path(query: TemporalQuery) -> str:
        return f"images.ordered_columns[{query.field}]"

    @staticmethod
    def details(query: TemporalQuery) -> dict:
        return {"field": query.field, "start": query.start, "end": query.end}

    def task(self, s: CatalogSlice, owns=None) -> np.ndarray:
        return s.temporal_ids(self.query, owns)

    def survivors(self, cut) -> int:
        start, end, mask = self.query.start, self.query.end, 0
        for shard, window in enumerate(cut.windows[self.query.field]):
            if (
                window is not None
                and (end is None or window[0] <= end)
                and (start is None or start <= window[1])
            ):
                mask |= 1 << shard
        return mask


class Categorical(Leaf):
    __slots__ = ("type_ids",)

    def __init__(self, query: CategoricalQuery, platform: TVDP | None = None) -> None:
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

    def task(self, s: CatalogSlice, owns=None) -> tuple[np.ndarray, np.ndarray]:
        query = self.query
        return s.best_confidence(self.type_ids, query.min_confidence, query.source, owns)

    def survivors(self, cut) -> int:
        if self.type_ids is None:
            return cut.nonempty  # the plan alone resolves no label
        mask = 0
        for type_id in self.type_ids:
            mask |= cut.labels.get(type_id, 0)
        return mask

    @staticmethod
    def answer(payload: tuple) -> Answer:
        """(ids ascending, best confidence of each) columns, as they are."""
        ids, best = payload
        return Answer(ids.tolist(), best.tolist())


class Textual(Leaf):
    __slots__ = ("terms",)

    def __init__(self, query: TextualQuery, platform=None) -> None:
        self.query, self.terms = query, tokenize(query.text)

    @staticmethod
    def path(query: TextualQuery) -> str:
        return f"inverted_index.postings_columns[{query.match}]"

    @staticmethod
    def details(query: TextualQuery) -> dict:
        return {"terms": query.text}

    def task(self, s: CatalogSlice, owns=None) -> tuple[np.ndarray, np.ndarray]:
        return s.text_scores(self.terms, self.query.match, owns)

    def survivors(self, cut) -> int:
        if not self.terms:
            return 0
        every = and_ if self.query.match == "all" else or_
        return reduce(every, map(cut.terms.get, self.terms, repeat(0)))

    @staticmethod
    def answer(payload: tuple) -> Answer:
        """(ids, tf-idf scores) columns, ranked."""
        return Answer(*by_score(*payload))


class Visual(Leaf):
    __slots__ = ("vector", "rows")

    def __init__(self, query: VisualQuery, platform: TVDP | None = None) -> None:
        self.query = query
        if platform is not None:
            self.vector = prepare_visual(query, platform)
            # The one LSH index hashes the query and gathers its
            # candidates once, for whichever rows rank them; a top-k
            # they fall short of scans instead (rows None), decided here,
            # on all of them, before anything is dispatched.
            rows = platform.slice.lsh(query.extractor_name).candidates(self.vector)
            short = query.max_distance is None and falls_back(len(rows), query.k)
            self.rows = None if short else rows

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

    def task(self, s: CatalogSlice, owns=None) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest of the candidates (of every row, when the
        top-k fell back) as ``(ids, distances)`` columns; the radius is
        cut at ``k`` — the ``k`` nearest cut at it."""
        query = self.query
        return s.visual_nearest(query.extractor_name, self.vector, query.k, self.rows, owns)

    def survivors(self, cut) -> int:
        return cut.extractors.get(self.query.extractor_name, 0)

    def answer(self, payload: tuple) -> Answer:
        """The ranked payload, cut at the radius; a top-k says on the
        span answering it whether it fell back."""
        query = self.query
        span = obs.current_span()
        if query.max_distance is None and span is not None:
            span.set("lsh_fallback", self.rows is None)
        return _nearest(payload, query.max_distance)


class SpatialVisual(Leaf):
    """The fused hybrid: the point columns filtered by the region, the
    survivors' vectors ranked — in one pass."""

    __slots__ = ("spatial", "visual", "vector")

    def __init__(self, query: HybridQuery, platform: TVDP | None = None) -> None:
        spatial, visual = query.fused_pair()
        self.query, self.spatial, self.visual = query, Spatial(spatial), Visual(visual)
        if platform is not None:
            self.vector = prepare_visual(visual, platform)

    path = staticmethod(lambda query: "columns.filter_then_rank (region filter, then exact top-k)")

    @staticmethod
    def details(query: HybridQuery) -> dict:
        _, visual = query.fused_pair()
        return {"extractor": visual.extractor_name, "k": visual.k, "filter": "camera_in_region"}

    def task(self, s: CatalogSlice, owns=None) -> tuple[np.ndarray, np.ndarray]:
        name, k = self.visual.query.extractor_name, self.visual.query.k
        return s.spatial_visual_nearest(name, self.spatial.region, self.vector, k, owns)

    def survivors(self, cut) -> int:
        return self.spatial.survivors(cut) & self.visual.survivors(cut)

    def answer(self, payload: tuple) -> Answer:
        return _nearest(payload, self.visual.query.max_distance)


class Conjunction(Leaf):
    """A general hybrid: each part answered alone over its whole pool (a
    top-k part depends on it, so no sibling narrows it), intersected."""

    __slots__ = ("parts",)

    def __init__(self, query: HybridQuery, platform=None) -> None:
        self.query = query
        self.parts = tuple(prepare(part, platform) for part in query.queries)

    path = staticmethod(lambda query: "intersect(sub-results)")
    details = staticmethod(lambda query: {"parts": len(query.queries)})

    def survivors(self, cut) -> int:
        return reduce(or_, [part.survivors(cut) for part in self.parts])

    @staticmethod
    def answer(answers: list) -> Answer:
        """Its parts' answers, intersected."""
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


def prepare(query: object, platform: TVDP | None = None) -> Leaf:
    """``query``'s leaf, prepared on ``platform`` to run on its slice or
    on any of its shards; given no platform, the plan alone."""
    return leaf_class(query)(query, platform)


def run_leaf(leaf: Leaf, s: CatalogSlice, owners: list | None = None) -> Answer:
    """``leaf``'s answer on ``s``: each part — a general hybrid's, else
    the leaf itself — runs its task once over the rows its owner mask in
    ``owners`` keeps (``None``, and no ``owners`` at all: every row) and
    orders its payload; a general hybrid's parts each in an uncounted
    ``query.<family>`` child span."""
    if not leaf.parts:
        return leaf.answer(leaf.task(s, owners[0] if owners else None))
    answers = []
    for part, owns in zip(leaf.parts, owners or repeat(None)):
        with obs.span(f"query.{query_family(part.query)}") as sp:
            sp.set("path", part.path(part.query))
            answers.append(part.answer(part.task(s, owns)))
            sp.set("results", len(answers[-1]))
    return leaf.answer(answers)


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


def _nearest(payload: tuple, radius: float | None) -> Answer:
    """Ranked ``(ids, distances)`` columns, at most ``k`` where they were
    made, cut at ``radius``."""
    ids, distances = payload
    if radius is not None:
        within = distances <= radius
        ids, distances = ids[within], distances[within]
    return Answer.from_distances(ids, distances)
