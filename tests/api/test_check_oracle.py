"""``POST /search``'s declaration check against the one it replaced.

The leaf kinds a search body's numbers pass through (``number``,
``Ranged``, ``Whole``) now hand on a value that is typed already — a
finite float, an int — without reading it again.  The check as it stood
before is kept here as the oracle: those kinds and the ``Obj`` /
``ListOf`` / ``Union`` / ``Declaration.check`` around them, over the
same query classes.  Hypothesis draws ``/search`` bodies of all six
families, hybrids of two and three parts, and malformed values — wrong
kinds, missing fields, NaN and ±inf, numbers sent as strings, bools, an
unknown ``type`` — and the served ``(status, body)`` must be what the
oracle's check makes of the same body, message for message.

A routed search is also one unit of work: the query joins its request's
unit and bill, and opens neither a unit nor a billable scope of its own.
"""

from __future__ import annotations

import copy
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Request, schema
from repro.api.schema import _REQUIRED, Malformed, optional
from repro.core import queries
from repro.errors import APIError, TVDPError
from repro.geo.point import BoundingBox, GeoPoint
from repro.obs.accounting import ledger_scope
from tests.api import route_table

# -- the oracle: the check as it was ----------------------------------------------------


def number(value: object) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            typed = float(value)
        except (ValueError, OverflowError):
            typed = math.nan
        if math.isfinite(typed):
            return typed
    raise Malformed("a finite number", value)


class Ranged:
    def __init__(self, low: float, high: float) -> None:
        self.low, self.high = low, high

    def __call__(self, value: object) -> float:
        typed = number(value)
        if not self.low <= typed <= self.high:
            raise Malformed(f"a number in [{self.low:g}, {self.high:g}]", value)
        return typed


class Whole:
    def __init__(self, at_least: int | None = None, at_most: int | None = None) -> None:
        self.at_least, self.at_most = at_least, at_most

    def __call__(self, value: object) -> int:
        typed = value
        if isinstance(typed, str):
            try:
                typed = int(typed)
            except ValueError:
                try:
                    typed = float(typed)
                except ValueError:
                    typed = None
        if isinstance(typed, float):
            typed = int(typed) if typed.is_integer() else None
        if isinstance(typed, bool) or not isinstance(typed, int):
            raise Malformed("an integer", value)
        if self.at_least is not None and typed < self.at_least:
            raise Malformed(f">= {self.at_least}", value)
        if self.at_most is not None and typed > self.at_most:
            raise Malformed(f"<= {self.at_most}", value)
        return typed


class Obj:
    def __init__(self, into=None, label: str = "", /, **fields) -> None:
        self.into, self.label = into, label
        self.fields: dict[str, optional] = {
            name: f if isinstance(f, optional) else optional(f, _REQUIRED)
            for name, f in fields.items()
        }
        self._plan = tuple(
            (name, f.kind, f.default, f.message) for name, f in self.fields.items()
        )

    def __call__(self, value: object) -> object:
        if not isinstance(value, dict):
            raise Malformed("a JSON object", value)
        if not self._plan:
            return value
        typed = {}
        name = message = None
        try:
            for name, kind, default, message in self._plan:
                item = value.get(name, default)
                if item is not default:
                    typed[name] = kind(item)
                elif default is _REQUIRED:
                    raise Malformed(None)
                else:
                    typed[name] = default
        except Malformed as exc:
            if message:
                raise APIError(400, message) from exc
            raise exc.under(name)
        if self.into is None:
            return typed
        try:
            return self.into(**typed)
        except TVDPError as exc:
            raise APIError(400, f"bad {self.label}: {exc}") from exc


class ListOf:
    def __init__(self, item) -> None:
        self.item = item

    def __call__(self, value: object) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise Malformed("a list", value)
        try:
            return tuple(self.item(item) for item in value)
        except Malformed as exc:
            raise exc.under("[]")


class Union:
    def __init__(self, tag: str, label: str) -> None:
        self.tag, self.label, self.variants = tag, label, {}

    def __call__(self, value: object) -> object:
        if not isinstance(value, dict):
            raise Malformed("a JSON object", value)
        kind = value.get(self.tag)
        variant = self.variants.get(kind) if isinstance(kind, str) else None
        if variant is None:
            raise APIError(400, f"unknown {self.label} {self.tag} {kind!r}")
        return variant(value)


def check(body: object) -> object:
    """``Declaration(body=QUERY).check({}, {}, body)``'s typed body."""
    if body is None:
        raise APIError(400, "request body required")
    try:
        return QUERY(body)
    except Malformed as exc:
        if exc.expect is None:
            raise APIError(400, f"missing field {exc.path!r}") from exc
        where = f"field {exc.path!r}" if exc.path else "request body"
        raise APIError(
            400, f"{where} must be {exc.expect}, got {schema.short_repr(exc.value)}"
        ) from exc


LAT, LNG = Ranged(-90.0, 90.0), Ranged(-180.0, 180.0)
REGION = Obj(BoundingBox, "region", min_lat=LAT, min_lng=LNG, max_lat=LAT, max_lng=LNG)
QUERY = Union("type", "query")
QUERY.variants.update(
    spatial=Obj(
        queries.SpatialQuery, "query",
        region=optional(REGION),
        point=optional(Obj(GeoPoint, "point", lat=LAT, lng=LNG)),
        radius_m=optional(number),
        mode=optional(schema.Enum("camera", "scene"), "scene"),
        direction_deg=optional(number),
        direction_tolerance_deg=optional(number, 45.0),
    ),
    visual=Obj(
        schema._visual_query, "query",
        extractor=schema.text,
        example=optional(schema.image_from_payload),
        vector=optional(schema.numbers),
        k=optional(Whole(at_least=1), 10),
        max_distance=optional(number),
    ),
    categorical=Obj(
        queries.CategoricalQuery, "query",
        classification=schema.text,
        labels=ListOf(schema.text),
        min_confidence=optional(number, 0.0),
        source=optional(schema.Enum("human", "machine")),
    ),
    textual=Obj(
        queries.TextualQuery, "query",
        text=schema.text, match=optional(schema.Enum("any", "all"), "any"),
    ),
    temporal=Obj(
        queries.TemporalQuery, "query",
        start=optional(number),
        end=optional(number),
        field=optional(schema.Enum(*queries.TEMPORAL_FIELDS), queries.TEMPORAL_FIELDS[0]),
    ),
    hybrid=Obj(queries.HybridQuery, "query", queries=ListOf(QUERY)),
)

# -- what is drawn ------------------------------------------------------------------------

#: Sent in place of a well-formed value.
WEIRD = [
    math.nan, math.inf, -math.inf, True, False, None, "12.5", " 7 ", "nan", "inf",
    "-1e999", "1e999", "x", "", [], {}, [1.0], 10**30, 0, -1, 1.5, 3, 1e308,
]
_OMIT = object()


def _field(good: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly a good value; now and then something else, or nothing."""
    return st.one_of(good, good, good, st.sampled_from(WEIRD), st.just(_OMIT))


def _body(kind: object, **fields: st.SearchStrategy) -> st.SearchStrategy:
    return st.fixed_dictionaries({"type": st.just(kind), **fields}).map(
        lambda drawn: {k: v for k, v in drawn.items() if v is not _OMIT}
    )


_LAT = st.floats(-95.0, 95.0, allow_nan=False)
_LNG = st.floats(-185.0, 185.0, allow_nan=False)
_FLOAT = st.floats(-1e6, 1e6, allow_nan=False)
_SPATIAL = _body(
    "spatial",
    region=_field(st.fixed_dictionaries(
        {"min_lat": _field(_LAT), "min_lng": _field(_LNG),
         "max_lat": _field(_LAT), "max_lng": _field(_LNG)}
    ).map(lambda d: {k: v for k, v in d.items() if v is not _OMIT})),
    point=_field(st.fixed_dictionaries({"lat": _field(_LAT), "lng": _field(_LNG)}).map(
        lambda d: {k: v for k, v in d.items() if v is not _OMIT}
    )),
    radius_m=_field(st.floats(-10.0, 5000.0, allow_nan=False)),
    mode=_field(st.sampled_from(["camera", "scene"])),
    direction_deg=_field(_FLOAT),
    direction_tolerance_deg=_field(st.floats(-10.0, 180.0, allow_nan=False)),
)
_VECTOR = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=50, max_size=50),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.lists(st.sampled_from([0.5, math.nan, math.inf, "0.5", True, 1e200]), min_size=50,
             max_size=50),
)
_VISUAL = _body(
    "visual",
    extractor=_field(st.sampled_from([route_table.EXTRACTOR, "nothing"])),
    vector=_field(_VECTOR),
    k=_field(st.integers(-2, 20)),
    max_distance=_field(st.floats(-1.0, 5.0, allow_nan=False)),
)
_LABEL = st.sampled_from(["clean", "dirty", "nothing"])
_CATEGORICAL = _body(
    "categorical",
    classification=_field(st.sampled_from(["street_cleanliness", "nothing"])),
    labels=_field(st.lists(st.one_of(_LABEL, st.sampled_from(WEIRD)), max_size=3)),
    min_confidence=_field(st.floats(-0.5, 1.5, allow_nan=False)),
    source=_field(st.sampled_from(["human", "machine"])),
)
_TEXTUAL = _body(
    "textual",
    text=_field(st.sampled_from(["street tent", "street", " ", "nothing here"])),
    match=_field(st.sampled_from(["any", "all"])),
)
_TEMPORAL = _body(
    "temporal",
    start=_field(_FLOAT), end=_field(_FLOAT),
    field=_field(st.sampled_from(queries.TEMPORAL_FIELDS)),
)
_PART = st.one_of(_SPATIAL, _VISUAL, _CATEGORICAL, _TEXTUAL, _TEMPORAL)
_HYBRID = _body("hybrid", queries=_field(st.one_of(
    st.lists(_PART, min_size=2, max_size=3),
    st.lists(_PART, max_size=1),
    st.lists(st.one_of(_PART, st.just({"type": "hybrid", "queries": []})), min_size=2,
             max_size=2),
)))
BODIES = st.one_of(
    _SPATIAL, _VISUAL, _CATEGORICAL, _TEXTUAL, _TEMPORAL, _HYBRID,
    st.fixed_dictionaries({"type": st.sampled_from(WEIRD + ["warp", "Spatial"])}),
    st.sampled_from(WEIRD),
)


# -- the property ---------------------------------------------------------------------------


def _outcome(status: int, body: dict) -> tuple:
    """``(status, body)``, an error envelope's ids (which differ from
    request to request) left out."""
    if status >= 400:
        error = body["error"]
        return status, error["type"], error["message"]
    return status, body


@pytest.fixture(scope="module")
def table():
    return route_table.harness()


def expected(table, body: object) -> tuple:
    """What the oracle's check, and then the search handler, make of ``body``."""
    try:
        typed = check(copy.deepcopy(body))
        response = table.service._search(Request("POST", "/search", body=typed))
    except APIError as exc:
        return exc.status, type(exc).__name__, exc.message
    except Exception as exc:  # noqa: BLE001 - the router's 500
        return 500, type(exc).__name__, str(exc)
    return _outcome(response.status, response.body)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(body=BODIES)
def test_a_search_body_is_served_as_the_old_check_took_it(table, body):
    served = table.call("POST", "/search", copy.deepcopy(body))
    assert _outcome(served.status, served.body) == expected(table, body)


@pytest.mark.parametrize("body", [
    {"type": "spatial", "region": {"min_lat": 34.0, "min_lng": -118.3, "max_lat": 34.02,
                                   "max_lng": -118.28}, "direction_deg": "nan"},
    {"type": "temporal", "start": math.inf},
    {"type": "temporal", "start": "1e999", "end": 5},
    {"type": "temporal", "start": True},
    {"type": "visual", "extractor": route_table.EXTRACTOR, "vector": [0.5] * 50, "k": "3"},
    {"type": "visual", "extractor": route_table.EXTRACTOR, "vector": [0.5] * 50, "k": 2.0},
    {"type": "hybrid", "queries": [{"type": "temporal", "end": 1.0}] * 3},
    {"type": "spatial", "point": {"lat": 91.0, "lng": 0.0}, "radius_m": 5.0},
])
def test_the_edges_it_was_drawn_for(table, body):
    served = table.call("POST", "/search", copy.deepcopy(body))
    assert _outcome(served.status, served.body) == expected(table, body)


# -- one unit per routed search -------------------------------------------------------------


def _units_and_scopes(call) -> dict:
    """Units of work and billable or private scopes opened by ``call``."""
    codes = {obs.Unit.__init__.__code__: "units", ledger_scope.__enter__.__code__: "scopes"}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("family", route_table.schema.QUERY.variants)
def test_a_routed_search_is_one_unit_whose_bill_the_query_joins(table, family):
    body = route_table.query_body(family)
    for asking in range(3):  # run, run and admit, then served by the cache
        counts = _units_and_scopes(lambda: table.call("POST", "/search", body))
        assert counts == {"units": 1, "scopes": 1}, (family, asking)
        record = obs.records().records()[-1]
        assert (record.operation, record.principal) == ("POST /search", f"key:{table.api_key[:8]}")
        assert [shape for shape, _, _ in record.queries] == [queries.query_shape(schema.QUERY(body))]


def test_a_bare_answer_still_bills_a_local_unit_of_its_own(table):
    query = schema.QUERY(route_table.query_body("temporal"))
    counts = _units_and_scopes(lambda: table.service.platform.answer(query))
    assert counts == {"units": 1, "scopes": 1}
    record = obs.records().records()[-1]
    assert (record.principal, record.operation) == ("local", "execute.temporal")
