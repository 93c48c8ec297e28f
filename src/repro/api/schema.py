"""What a well-formed request is, declared once per route.

:data:`ROUTES` maps every ``"METHOD /template"`` the service registers
to a :class:`Declaration` of its path parameters, query parameters and
body, built from a closed set of *kinds* each defined exactly once
below.  ``Router.dispatch`` runs the declaration before the handler, so
a handler only ever sees typed values (floats, ints, tuples of strings,
:class:`Image`, numpy vectors, query objects) and a malformed request is
a 400 envelope without the handler running at all.  The tests and the
fuzz read this same table, so a route is swept the day it is declared.

Rules every declaration shares: a declared field is checked whenever it
is present, used or not; unknown *body* fields are ignored; unknown
*query* parameters are refused (a misspelt bound must not silently fall
back to its default); on an optional field whose default is ``None``,
``null`` means absent.
"""

from __future__ import annotations

import contextlib
import math
from itertools import chain
from reprlib import repr as short_repr

import numpy as np

from repro.api.modelstore import CLASSIFIER_FACTORIES
from repro.core import queries
from repro.errors import APIError, TVDPError
from repro.geo.fov import FieldOfView
from repro.geo.point import BoundingBox, GeoPoint
from repro.imaging.image import Image
from repro.index.lsh import squared_norm

_REQUIRED = object()


class Malformed(Exception):
    """A value that is not what its declaration says.  ``path`` grows as
    the failure passes out through the enclosing objects; an ``expect``
    of ``None`` means the field is missing altogether."""

    def __init__(self, expect: str | None, value: object = None) -> None:
        super().__init__(expect)
        self.expect, self.value, self.path = expect, value, ""

    def under(self, name: str) -> "Malformed":
        self.path = f"{name}.{self.path}" if self.path else name
        return self


def image_to_payload(image: Image) -> dict:
    """JSON-compatible encoding of an image (8-bit nested lists)."""
    return {"pixels_u8": image.to_uint8().tolist()}


# -- kinds: each takes a JSON value and returns it typed, or raises -----------------


def image_from_payload(payload: object) -> Image:
    """Inverse of :func:`image_to_payload`: ``{"pixels_u8": h x w x 3}``,
    each value a :data:`PIXEL`."""
    if not isinstance(payload, dict) or "pixels_u8" not in payload:
        raise APIError(400, "image payload must be an object with 'pixels_u8'")
    pixels = _plain_bytes(payload["pixels_u8"])
    try:
        if pixels is None:  # judge each value, and name the one that fails
            cells = np.array(payload["pixels_u8"], dtype=object)
            if cells.ndim != 3:
                raise ValueError(f"expected (H, W, 3) array, got shape {cells.shape}")
            try:
                values = [PIXEL(value) for value in cells.ravel().tolist()]
            except Malformed as exc:
                raise exc.under("pixels_u8") from None
            pixels = np.array(values, np.uint8).reshape(cells.shape)
        return Image.from_uint8(pixels)
    except (ValueError, TVDPError) as exc:  # ragged, or the wrong shape
        raise APIError(400, f"bad image payload: {exc}") from exc


def _plain_bytes(rows: object) -> np.ndarray | None:
    """``rows`` as (H, W, 3) bytes when it is what a well-formed upload
    sends — equal-length lists of 3-lists of ints in 0-255 — read as flat
    lists (cheaper than a nested ``np.array`` at 640x480); else ``None``."""
    if type(rows) is not list or set(map(type, rows)) != {list}:
        return None
    pixels = list(chain.from_iterable(rows))
    if set(map(type, pixels)) != {list} or set(map(len, pixels)) != {3}:
        return None
    values = list(chain.from_iterable(pixels))
    if set(map(type, values)) != {int} or len(set(map(len, rows))) != 1:
        return None
    with contextlib.suppress(ValueError):  # an int outside 0-255
        return np.frombuffer(bytes(values), np.uint8).reshape(len(rows), -1, 3)
    return None


def number(value: object) -> float:
    """A finite number, or a string spelling one; never a bool."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            typed = float(value)
        except (ValueError, OverflowError):
            typed = math.nan
        if math.isfinite(typed):
            return typed
    raise Malformed("a finite number", value)


class Ranged:
    """A :func:`number` within ``[low, high]``: a latitude, a longitude.
    The range is checked here, not by ``BoundingBox`` — an FOV's MBR may
    legitimately cross +/-180; a box a caller sends may not."""

    def __init__(self, low: float, high: float) -> None:
        self.low, self.high = low, high

    def __call__(self, value: object) -> float:
        typed = number(value)
        if not self.low <= typed <= self.high:
            raise Malformed(f"a number in [{self.low:g}, {self.high:g}]", value)
        return typed


class Whole:
    """A whole number however it is spelt (``5``, ``5.0``, ``"5"``),
    optionally bounded.  A bool or a fraction is the caller's fault, not
    a 1 or a rounded-down count."""

    def __init__(self, at_least: int | None = None, at_most: int | None = None) -> None:
        self.at_least, self.at_most = at_least, at_most

    def __call__(self, value: object) -> int:
        typed = value
        if isinstance(typed, str):
            try:
                typed = int(typed)  # exact however long; "5.0" is left to float
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


def text(value: object) -> str:
    """A string: names key tables and registries, so a number or a list
    there is the caller's fault, not a lookup miss."""
    if not isinstance(value, str):
        raise Malformed("a string", value)
    return value


class Flag:
    """On or off, said as a bool, an int or text: off where the value is
    one of ``off`` (the spellings differ by route and predate the table;
    each keeps the meaning it had), on for anything else."""

    def __init__(self, *off: object) -> None:
        self.off = off

    def __call__(self, value: object) -> bool:
        if value is not None and not isinstance(value, (str, int)):
            raise Malformed("a flag (true/false, 1/0, or text)", value)
        return value not in self.off


class Enum:
    """One of a fixed set of strings (or ``None``, where that is one)."""

    def __init__(self, *choices: str | None) -> None:
        self.choices = choices

    def __call__(self, value: object) -> str | None:
        if value not in self.choices:  # a tuple: ``==``, so unhashables are fine
            raise Malformed(f"one of {list(self.choices)}", value)
        return value


_FINITE_LIST = "a flat, non-empty list of finite numbers"


def numbers(value: object) -> np.ndarray:
    """A flat, non-empty JSON list of numbers, handed on as a float64
    array; whether they are finite is said once, by what is built from
    them — a bare :func:`vector`, or a visual query (``sq_norm``)."""
    if isinstance(value, list) and value:
        try:
            typed = np.array(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            typed = None
        if typed is not None and typed.ndim == 1:
            return typed
    raise Malformed(_FINITE_LIST, value)


def vector(value: object) -> np.ndarray:
    """:func:`numbers` whose squared norm is finite too (a NaN, an
    infinity and an overflow all show there: no distance to such a
    vector is a number).  Its length is the model's to judge."""
    typed = numbers(value)
    if math.isfinite(squared_norm(typed)):
        return typed
    raise Malformed(_FINITE_LIST, value)


def _visual_query(extractor: str, **rest: object) -> queries.VisualQuery:
    """A spec's visual query, its vector as finite as a :func:`vector`:
    read off the squared norm the query took of it."""
    query = queries.VisualQuery(extractor, **rest)
    if query.sq_norm is not None and not math.isfinite(query.sq_norm):
        raise Malformed(_FINITE_LIST, rest["vector"]).under("vector")
    return query


class optional:  # noqa: N801 - reads as a keyword in the table
    """A field that may be left out: ``default`` stands in when it is
    missing (or ``null``, where the default is ``None``).  ``message``
    replaces the generated error text where a client pins the old one."""

    def __init__(self, kind, default=None, message: str | None = None) -> None:
        self.kind, self.default, self.message = kind, default, message


class Obj:
    """A JSON object.  With ``fields``, each is typed (bare kinds are
    required) and the rest ignored; without, any object passes through
    as it is.  ``into(**typed)`` builds the domain object — that is
    where the semantic checks live, and a :class:`TVDPError` from it is
    the caller's fault too (``bad <label>: ...``)."""

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
    """A JSON list of one kind, handed on as a tuple."""

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
    """One of several objects, told apart by the string at ``tag``."""

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


_NOTHING = Obj()


class Declaration:
    """One route's request: path parameters, query parameters, body;
    an ``open`` route is served without an API key (to ``anonymous``)."""

    def __init__(
        self, path: Obj = _NOTHING, query: Obj = _NOTHING, body=None, open: bool = False
    ) -> None:
        self.path, self.query, self.body, self.open = path, query, body, open

    def check(self, path_params: dict, params: dict, body: object) -> tuple:
        """``(path_params, params, body)`` typed, or a 400."""
        takes = self.query.fields
        try:
            typed_path = self.path(path_params) if path_params else path_params
            if params and not params.keys() <= takes.keys():
                unknown = sorted(set(params) - takes.keys(), key=str)
                raise APIError(
                    400, f"unknown parameter(s) {unknown}; takes {sorted(takes)}"
                )
            typed_query = self.query(params) if takes else params
        except Malformed as exc:
            raise APIError(400, f"{exc.path} must be {exc.expect}") from exc
        if self.body is None:
            return typed_path, typed_query, None
        if body is None:
            raise APIError(400, "request body required")
        try:
            return typed_path, typed_query, self.body(body)
        except Malformed as exc:
            if exc.expect is None:
                raise APIError(400, f"missing field {exc.path!r}") from exc
            where = f"field {exc.path!r}" if exc.path else "request body"
            raise APIError(
                400, f"{where} must be {exc.expect}, got {short_repr(exc.value)}"
            ) from exc


# -- the table ----------------------------------------------------------------------

TEXTS = ListOf(text)
PIXEL = Whole(0, 255)  # one channel of one pixel of an image payload
ID = Whole()  # "/images/7", a user id, a task id
COUNT = Whole(at_least=1)  # limit, top, k: a bound of 0 bounds nothing
# The upper bound is there only because ``rows=10**30`` used to never
# answer: the cost is rows x cols cells, each against every FOV in the
# region (128 x 128 on an empty catalog is already 0.2 s).
GRID = Whole(1, 128)
SOURCE = Enum("human", "machine")
TRUTHY = Flag("", 0, None)  # include_pixels, annotate: as Python's truthiness had it
SWITCH = Flag("0", "false", "no")  # analyze: on unless text switches it off
LAT, LNG = Ranged(-90.0, 90.0), Ranged(-180.0, 180.0)
REGION = Obj(BoundingBox, "region", min_lat=LAT, min_lng=LNG, max_lat=LAT, max_lng=LNG)
FOV = Obj(
    lambda **fov: FieldOfView.from_dict(fov), "fov",
    lat=LAT, lng=LNG, direction_deg=number, angle_deg=number, range_m=number,
)

#: The spec ``POST /search`` and ``GET /debug/explain`` take: six query
#: kinds told apart by ``type``, handed on as the query objects of
#: :mod:`repro.core.queries` (whose ``__post_init__`` holds the
#: semantic checks).  ``hybrid`` takes a list of these, recursively.
QUERY = Union("type", "query")
QUERY.variants.update(
    spatial=Obj(
        queries.SpatialQuery, "query",
        region=optional(REGION),
        point=optional(Obj(GeoPoint, "point", lat=LAT, lng=LNG)),
        radius_m=optional(number),
        mode=optional(Enum("camera", "scene"), "scene"),
        direction_deg=optional(number),
        direction_tolerance_deg=optional(number, 45.0),
    ),
    visual=Obj(
        _visual_query, "query",
        extractor=text,
        example=optional(image_from_payload),
        vector=optional(numbers),
        k=optional(COUNT, 10),
        max_distance=optional(number),
    ),
    categorical=Obj(
        queries.CategoricalQuery, "query",
        classification=text,
        labels=TEXTS,
        min_confidence=optional(number, 0.0),
        source=optional(SOURCE),
    ),
    textual=Obj(
        queries.TextualQuery, "query",
        text=text, match=optional(Enum("any", "all"), "any"),
    ),
    temporal=Obj(
        queries.TemporalQuery, "query",
        start=optional(number),
        end=optional(number),
        field=optional(Enum(*queries.TEMPORAL_FIELDS), queries.TEMPORAL_FIELDS[0]),
    ),
    hybrid=Obj(queries.HybridQuery, "query", queries=ListOf(QUERY)),
)

_IMAGE = Obj(image_id=ID)
_MODEL = Obj(name=text)
_CAMPAIGN = Obj(campaign_id=ID)
_NUMERIC = "budget and window_s must be numeric"

#: Every route ``TVDPService`` registers, by ``"METHOD /template"``.
ROUTES: dict[str, Declaration] = {
    # Open: nobody has a key before these two have answered.
    "POST /users": Declaration(
        body=Obj(name=text, role=text, organization=optional(text)), open=True
    ),
    "POST /keys": Declaration(body=Obj(user_id=ID), open=True),
    "POST /images": Declaration(body=Obj(
        image=image_from_payload, fov=FOV, captured_at=number, uploaded_at=number,
        keywords=optional(TEXTS, ()),
    )),
    "GET /images/{image_id}": Declaration(
        _IMAGE, query=Obj(include_pixels=optional(TRUTHY, False))
    ),
    "POST /search": Declaration(body=QUERY),
    "POST /features/{extractor}": Declaration(
        Obj(extractor=text),
        body=Obj(image=optional(image_from_payload), image_id=optional(ID)),
    ),
    "POST /models": Declaration(body=Obj(
        name=text, extractor=text, classification=text,
        classifier=Enum(*CLASSIFIER_FACTORIES), description=optional(text, ""),
    )),
    "POST /models/{name}/train": Declaration(_MODEL, body=Obj(
        # ``null`` is not "absent" here: it means both sources.
        source=optional(Enum("human", "machine", None), "human"),
        min_confidence=optional(number, 0.0),
    )),
    "POST /models/{name}/predict": Declaration(_MODEL, body=Obj(
        image=optional(image_from_payload), vector=optional(vector),
        image_id=optional(ID), annotate=optional(TRUTHY, False),
    )),
    "GET /models/{name}/download": Declaration(_MODEL),
    "GET /stats": Declaration(),
    # Any format but "prometheus" is JSON, as it always was.
    "GET /metrics": Declaration(query=Obj(format=optional(text)), open=True),
    # Open: load balancers probe without credentials.
    "GET /health": Declaration(open=True),
    "GET /debug/slow": Declaration(
        query=Obj(op=optional(text), limit=optional(COUNT))
    ),
    # ``limit`` here and ``top`` below default to 10 in their handlers:
    # a ``null`` there has always meant "the default", not a bad bound.
    "GET /debug/hot": Declaration(query=Obj(limit=optional(COUNT))),
    "GET /debug/explain": Declaration(
        query=Obj(analyze=optional(SWITCH, True)), body=QUERY
    ),
    "GET /debug/resources": Declaration(query=Obj(
        top=optional(COUNT),
        budget=optional(number, message=_NUMERIC),
        # Only with ``budget``, which the handler checks: the default
        # (60) is applied there so that "not sent" stays visible.
        window_s=optional(number, message=_NUMERIC),
    )),
    "GET /debug/trace/{trace_id}": Declaration(Obj(trace_id=text)),
    "GET /debug/request/{request_id}": Declaration(Obj(request_id=text)),
    "POST /classifications": Declaration(
        body=Obj(name=text, labels=TEXTS, description=optional(text, ""))
    ),
    "POST /images/{image_id}/annotations": Declaration(_IMAGE, body=Obj(
        classification=text, label=text,
        confidence=optional(number, 1.0), source=optional(SOURCE, "human"),
        annotator=optional(text), created_at=optional(number, 0.0),
        bbox=optional(Obj()),
    )),
    "GET /images/{image_id}/annotations": Declaration(_IMAGE),
    "GET /routes": Declaration(),
    "POST /campaigns": Declaration(body=Obj(
        region=REGION, description=optional(text, ""),
        target_coverage=optional(number, 0.9), min_directions=optional(COUNT, 1),
        reward_per_task=optional(number, 1.0),
    )),
    "GET /campaigns/{campaign_id}/tasks": Declaration(_CAMPAIGN, query=Obj(
        rows=optional(GRID, 8), cols=optional(GRID, 8), max_tasks=optional(Whole()),
    )),
    "POST /campaigns/{campaign_id}/captures": Declaration(_CAMPAIGN, body=Obj(
        task_id=ID, image=image_from_payload, fov=FOV, captured_at=number,
        uploaded_at=optional(number),
    )),
}
