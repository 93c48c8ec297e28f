"""Query model for TVDP data access (paper Section IV-C).

Five primitive query families — spatial, visual, categorical, textual,
temporal — plus hybrid composition.  Queries are plain declarative
objects; the platform (:class:`repro.core.platform.TVDP`) executes them
against its indexes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

import numpy as np

from repro.errors import QueryError
from repro.geo.point import BoundingBox, GeoPoint
from repro.imaging.image import Image
from repro.index.lsh import squared_norm
from repro.index.ordering import by_score, id_column


def _require_number(name: str, value: object) -> None:
    """Reject a non-``None`` query parameter that is not a real number:
    NaN compares false with everything, so it has no place in a window
    or under ``bisect``, and a string fails only deep inside execution."""
    if value is None:
        return
    # A float is what the API's schema hands on and what most callers
    # pass: say so by its type, and ask the ABC only about the rest.
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise QueryError(f"{name} must be a number, got {value!r}")
    if value != value:
        raise QueryError(f"{name} must not be NaN")


def _require_finite(name: str, value: object) -> None:
    """:func:`_require_number`, and not infinite either: a vectorised
    mask answers an infinite bearing or bound with a quietly empty
    result where a scalar walk at least had a chance to raise."""
    if value is None or type(value) is float and value - value == 0.0:
        return  # what nearly every value is; the rest is told what is wrong
    _require_number(name, value)
    if math.isinf(value):
        raise QueryError(f"{name} must be finite, got {value!r}")


def _require_count(name: str, value: object) -> None:
    """Reject a ``k`` that is not a whole number >= 1: ``True`` and
    ``2.7`` would otherwise pass for 1 and 2."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise QueryError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise QueryError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class QueryResult:
    """One hit: the image id and a query-specific relevance score
    (higher is better; 0.0 for unranked boolean matches)."""

    image_id: int
    score: float = 0.0


class Answer:
    """A query's whole answer as two parallel lists: the hit ids in
    answer order and their scores beside them.  ``scores=None`` means
    unranked — every score 0.0 — so an enumeration family carries one
    column, not two.  ``failed_shards`` names the shards a sharded
    platform lost after every retry: non-empty, the answer is the
    subset the surviving shards hold.

    This is what travels from an index to the response body: every
    runner, every shard merge and :func:`combine_hybrid` produce and
    consume it, and no per-hit object exists until a Python caller asks
    for :meth:`results`.
    """

    __slots__ = ("ids", "scores", "failed_shards")

    def __init__(self, ids: list[int], scores: list[float] | None = None) -> None:
        self.ids = ids
        self.scores = scores
        self.failed_shards: tuple = ()

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_distances(cls, ids: np.ndarray, distances: np.ndarray) -> "Answer":
        """Ranked ``(image id, distance)`` columns, in the given order.
        Similarity score: inverse distance, monotone for ranking (IEEE
        arithmetic: float for float what Python computes per pair)."""
        return cls(ids.tolist(), (1.0 / (1.0 + distances)).tolist())

    @classmethod
    def nearest_first(cls, pairs: list[tuple[int, float]]) -> "Answer":
        """:meth:`from_distances` of ranked ``(image id, distance)`` pairs."""
        return cls.from_distances(
            id_column([item for item, _ in pairs]),
            np.array([distance for _, distance in pairs], dtype=np.float64),
        )

    def pairs(self) -> Iterator[tuple[int, float]]:
        """``(image id, score)`` per hit, in answer order."""
        return zip(self.ids, repeat(0.0) if self.scores is None else self.scores)

    def results(self) -> list[QueryResult]:
        """The answer as the public ``list[QueryResult]`` — the only
        place a :class:`QueryResult` is built."""
        return [QueryResult(image_id, score) for image_id, score in self.pairs()]


@dataclass(frozen=True)
class SpatialQuery:
    """Find images by location.

    Exactly one of ``region`` or (``point`` + ``radius_m``) must be
    given.  ``mode='camera'`` matches camera positions; ``mode='scene'``
    matches images whose FOV *depicts* the area.  An optional viewing
    ``direction_deg`` (with tolerance) restricts orientation.
    """

    region: BoundingBox | None = None
    point: GeoPoint | None = None
    radius_m: float | None = None
    mode: str = "scene"
    direction_deg: float | None = None
    direction_tolerance_deg: float = 45.0

    def __post_init__(self) -> None:
        has_region = self.region is not None
        has_point = self.point is not None and self.radius_m is not None
        if has_region == has_point:
            raise QueryError(
                "SpatialQuery needs either a region or a point+radius, not both"
            )
        # Each check spelt out, in the order they report: no loop, no name built.
        _require_finite("radius_m", self.radius_m)
        _require_finite("direction_deg", self.direction_deg)
        _require_finite("direction_tolerance_deg", self.direction_tolerance_deg)
        if self.radius_m is not None and self.radius_m < 0:
            raise QueryError(f"radius must be >= 0, got {self.radius_m}")
        if self.direction_tolerance_deg is None or self.direction_tolerance_deg < 0:
            raise QueryError(
                "direction_tolerance_deg must be >= 0, "
                f"got {self.direction_tolerance_deg}"
            )
        region = self.region
        if region is not None:
            _require_finite("region min_lat", region.min_lat)
            _require_finite("region min_lng", region.min_lng)
            _require_finite("region max_lat", region.max_lat)
            _require_finite("region max_lng", region.max_lng)
        if self.mode not in ("camera", "scene"):
            raise QueryError(f"mode must be 'camera' or 'scene', got {self.mode!r}")

    def bounding_region(self) -> BoundingBox:
        """The query region, or a box around the point+radius."""
        if self.region is not None:
            return self.region
        return BoundingBox.around(self.point, self.radius_m)


@dataclass(frozen=True)
class VisualQuery:
    """Find images similar to an example.

    Provide either a raw ``example`` image (features are extracted with
    ``extractor_name``) or a precomputed ``vector``.  ``k`` limits the
    result count; ``max_distance`` optionally thresholds similarity.
    """

    extractor_name: str
    example: Image | None = None
    vector: np.ndarray | None = None
    k: int = 10
    max_distance: float | None = None
    #: ``|vector|^2``, taken once, when the query is built, whoever
    #: builds it: the API's schema refuses a query whose is not finite,
    #: and so does ``families.prepare_visual`` when the query is run — a NaN,
    #: an infinity and an overflow all show there, and no distance to
    #: such a vector is a number.  ``vector`` is held flat and float64.
    sq_norm: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.example is None) == (self.vector is None):
            raise QueryError("VisualQuery needs exactly one of example or vector")
        _require_count("k", self.k)
        _require_number("max_distance", self.max_distance)
        if self.max_distance is not None and self.max_distance < 0:
            raise QueryError(f"max_distance must be >= 0, got {self.max_distance}")
        if self.vector is not None:
            try:
                flat = np.asarray(self.vector, dtype=np.float64).ravel()
            except (TypeError, ValueError, OverflowError) as exc:
                raise QueryError(f"vector must be numbers: {exc}") from exc
            object.__setattr__(self, "vector", flat)
            object.__setattr__(self, "sq_norm", squared_norm(flat))


@dataclass(frozen=True)
class CategoricalQuery:
    """Find images carrying annotations of a classification label."""

    classification: str
    labels: tuple[str, ...]
    min_confidence: float = 0.0
    source: str | None = None  # 'human', 'machine', or None for both

    def __post_init__(self) -> None:
        if not self.labels:
            raise QueryError("CategoricalQuery needs at least one label")
        if not (0.0 <= self.min_confidence <= 1.0):
            raise QueryError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.source not in (None, "human", "machine"):
            raise QueryError(f"source must be human/machine/None, got {self.source!r}")


@dataclass(frozen=True)
class TextualQuery:
    """Find images by keyword text. ``match='any'`` is disjunctive
    tf-idf ranking; ``'all'`` requires every term."""

    text: str
    match: str = "any"

    def __post_init__(self) -> None:
        if self.match not in ("any", "all"):
            raise QueryError(f"match must be 'any' or 'all', got {self.match!r}")
        if not isinstance(self.text, str):
            raise QueryError(f"text must be a string, got {self.text!r}")
        if not self.text.strip():
            raise QueryError("TextualQuery needs non-empty text")


#: The ``images`` columns a :class:`TemporalQuery` may range over; each
#: carries an ordered index (``Database.tvdp``).
TEMPORAL_FIELDS = ("timestamp_capturing", "timestamp_uploading")


@dataclass(frozen=True)
class TemporalQuery:
    """Find images captured (or uploaded) in a time window, both ends
    inclusive; ``None`` leaves an end open."""

    start: float | None = None
    end: float | None = None
    field: str = "timestamp_capturing"

    def __post_init__(self) -> None:
        if self.start is None and self.end is None:
            raise QueryError("TemporalQuery needs start and/or end")
        _require_number("start", self.start)
        _require_number("end", self.end)
        if self.start is not None and self.end is not None and self.start > self.end:
            raise QueryError(f"start {self.start} is after end {self.end}")
        if self.field not in TEMPORAL_FIELDS:
            raise QueryError(f"unknown temporal field {self.field!r}")


@dataclass(frozen=True)
class HybridQuery:
    """Conjunction of sub-queries (e.g. spatial + visual).

    Results are the intersection of all components' hits; scores come
    from the *last ranked* component (visual or textual), falling back
    to 0.0 for purely boolean combinations.
    """

    queries: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.queries) < 2:
            raise QueryError("HybridQuery needs at least two sub-queries")
        for query in self.queries:
            if isinstance(query, HybridQuery):
                raise QueryError("HybridQuery cannot nest hybrids")

    def fused_pair(self) -> tuple[SpatialQuery, VisualQuery] | None:
        """``(spatial, visual)`` when this hybrid is exactly one of each
        — the pair the Visual R*-tree answers in a single pass — else
        ``None``.  Execution, planning and shard pruning all branch on
        this one test."""
        parts = self.queries
        spatial = next((q for q in parts if isinstance(q, SpatialQuery)), None)
        visual = next((q for q in parts if isinstance(q, VisualQuery)), None)
        if len(parts) == 2 and spatial is not None and visual is not None:
            return spatial, visual
        return None


#: Query class -> family name, the label vocabulary shared by span names
#: (``query.<family>``) and the ``platform.queries`` counter.
_QUERY_FAMILIES = {
    SpatialQuery: "spatial",
    VisualQuery: "visual",
    CategoricalQuery: "categorical",
    TextualQuery: "textual",
    TemporalQuery: "temporal",
    HybridQuery: "hybrid",
}


def query_family(query: object) -> str:
    """Family name of a query instance (``'spatial'``, ... ``'hybrid'``)."""
    family = _QUERY_FAMILIES.get(type(query))
    if family is None:
        raise QueryError(f"unsupported query type {type(query).__name__}")
    return family


def query_shape(query: object) -> str:
    """Literal-free normalized signature of a query — its *shape*.

    Two queries share a shape when they exercise the same access path
    with the same structural parameters, regardless of the literals
    (coordinates, text, vectors, timestamps) they carry::

        SpatialQuery(region=A)            -> "spatial(mode=scene,region)"
        SpatialQuery(region=B)            -> "spatial(mode=scene,region)"
        VisualQuery("hsv", vector=v, k=5) -> "visual(extractor=hsv,k=5)"

    The record store's shape rollup (``/debug/hot``, the usage report's
    ``by_shape``) aggregates the workload by these strings; parameters
    that change the access path or its cost class (mode, match, k,
    radius-vs-topk, label count) stay in the shape, parameters that
    merely move it around do not.
    """
    if isinstance(query, SpatialQuery):
        where = "region" if query.region is not None else "point+radius"
        direction = ",direction" if query.direction_deg is not None else ""
        return f"spatial(mode={query.mode},{where}{direction})"
    if isinstance(query, VisualQuery):
        radius = ",radius" if query.max_distance is not None else ""
        return f"visual(extractor={query.extractor_name},k={query.k}{radius})"
    if isinstance(query, CategoricalQuery):
        floor = ",min_confidence" if query.min_confidence > 0.0 else ""
        source = f",source={query.source}" if query.source is not None else ""
        return (
            f"categorical(classification={query.classification},"
            f"labels={len(query.labels)}{floor}{source})"
        )
    if isinstance(query, TextualQuery):
        return f"textual(match={query.match},terms={len(query.text.split())})"
    if isinstance(query, TemporalQuery):
        bounds = "start+end" if query.start is not None and query.end is not None else (
            "start" if query.start is not None else "end"
        )
        return f"temporal(field={query.field},{bounds})"
    if isinstance(query, HybridQuery):
        inner = "+".join(query_shape(sub) for sub in query.queries)
        return f"hybrid({inner})"
    raise QueryError(f"unsupported query type {type(query).__name__}")


# devtools: allow[dead-code] — intentional API surface
def scored_pairs(pairs: list[tuple[int, float]]) -> list[QueryResult]:
    """Ranked ``(image id, distance)`` pairs as results, in the given
    order.  Similarity score: inverse distance, monotone for ranking."""
    return Answer.nearest_first(pairs).results()


def combine_hybrid(answers: list[Answer]) -> Answer:
    """Conjunction semantics shared by serial and sharded execution:
    intersect the sub-answers, score each survivor with the last
    positive sub-score seen, order by (score desc, media id asc).

    Both execution paths call exactly this function on their per-part
    answers, so a hybrid's merge can never diverge from serial.
    """
    common = set.intersection(*[set(answer.ids) for answer in answers])
    scores = dict.fromkeys(common, 0.0)
    for answer in answers:
        if answer.scores is None:
            continue  # unranked: no positive score to hand on
        for image_id, score in zip(answer.ids, answer.scores):
            if score > 0 and image_id in scores:
                scores[image_id] = score
    ids = np.fromiter(scores, dtype=np.int64, count=len(scores))
    ranked = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    return Answer(*by_score(ids, ranked))
