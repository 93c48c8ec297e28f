"""Requests generated from the route table.

Everything here walks ``service.router.declarations()`` — the same
:mod:`repro.api.schema` objects the router checks requests against — so
a route is covered the day it is registered: one well-formed request
per route (and per query kind), and every single-field mutation of it.
The only hand-kept knowledge is *values* (``GOOD``: a latitude that is
on Earth, an extractor that exists) and what each leaf *kind* is
(``takes``: a number is not a list), never which routes or fields exist.

Whether a mutated request must be refused is read off the declaration's
structure — the field's kind, whether it is optional, what it defaults
to — and never by running the declaration: the checker is the code
under test, so a kind that quietly starts taking a bool for a number
fails every field declared with it.
"""

from __future__ import annotations

import copy
import enum
import dataclasses
from dataclasses import dataclass, replace

from repro import TVDP, obs
from repro.api import Request, Response, TVDPClient, TVDPService, schema
from repro.features import ColorHistogramExtractor

EXTRACTOR = "color_hsv_20_20_10"
MODEL = "cleanliness_lr"


def _image(*rgb: int) -> dict:
    return {"pixels_u8": [[list(rgb) for _ in range(8)] for _ in range(8)]}


IMAGE, OTHER_IMAGE = _image(10, 20, 30), _image(200, 180, 20)


class Live(enum.Enum):
    """Values only the running service knows; filled in at send time."""

    OPEN_TASK = "an open task of campaign 1"
    TRACE = "a trace still in the ring buffer"
    REQUEST = "a request still in the ring buffer"


MISSING = object()
#: What a single field is replaced with.  The first six are the PR 13-16
#: sweep; the rest are where the 500s it missed were found — ``overflow``
#: a vector of finite numbers whose squared norm is not (every distance
#: to it is infinite, and it was ranked), ``out_of_range`` a perfectly
#: good number that is no latitude or longitude (a region reaching it
#: was searched, and a campaign created over it).
MUTATIONS = {
    "missing": MISSING, "null": None, "str": "x", "list": [], "dict": {},
    "nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"),
    "true": True, "frac": 1.5, "huge": 10**30, "zero": 0, "neg": -1,
    "overflow": [1e200] * 50, "out_of_range": 1000,
}
#: What a whole body is replaced with (a body is not a field: "missing"
#: is no body at all).
BODIES = {
    "missing": None, "str": "search", "list": [1, 2], "true": True,
    "frac": 1.5, "huge": 10**30,
}

#: What is presented in place of an API key and is not one — not even a
#: string.  No route may let it out as a raw exception: a route that
#: asks for a key answers 401, an open one serves (and bills) nobody.
BAD_CREDENTIALS = {"int": 12345, "list": ["k"], "dict": {"a": 1}, "bytes": b"\x00key"}

#: Semantically good values, by field name; a field not named here gets
#: its kind's plainest value.
GOOD = {
    "lat": 34.0, "lng": -118.2, "direction_deg": 10.0, "angle_deg": 60.0,
    "range_m": 120.0, "min_lat": 33.9, "min_lng": -118.3, "max_lat": 34.1,
    "max_lng": -118.1, "captured_at": 100.0, "uploaded_at": 105.0,
    "keywords": ["street", "tent"], "extractor": EXTRACTOR,
    "classification": "street_cleanliness", "label": "clean",
    "labels": ["clean", "dirty"], "confidence": 0.9, "min_confidence": 0.5,
    "target_coverage": 0.9, "radius_m": 500.0, "k": 3, "text": "street tent",
    "start": 0.0, "end": 1000.0, "role": "researcher", "op": "http.request",
    "classifier": "logistic_regression", "task_id": Live.OPEN_TASK,
    "trace_id": Live.TRACE, "request_id": Live.REQUEST, "budget": 10.0,
    "window_s": 60.0,
}
#: ``{name}`` in a path is a model that exists; in a body, a new one.
PATH_GOOD = {"name": MODEL}
#: "Exactly one of" is semantics the table does not carry: each query
#: kind named here gets a second well-formed request without the first
#: group of fields, and its first request goes without the second.
EITHER = {"spatial": (("point", "radius_m"), ("region",)), "visual": (("example",), ("vector",))}
#: "Only beside" is more of the same: a field that means something only
#: with another one.  The request that drops the other one and still
#: sends it is a 400, though each is optional by itself.
ONLY_WITH = {"window_s": "budget"}


#: Each leaf kind's plainest value.
_PLAIN = {
    schema.number: 1.0, schema.text: "fresh", schema.vector: [0.1] * 50,
    schema.numbers: [0.1] * 50, schema.image_from_payload: IMAGE,
}


#: The image payload's inside, which the table does not spell out: the
#: array itself (one pixel of it is a ``schema.PIXEL``, a whole number).
PIXELS = "the pixel array"
#: Which MUTATIONS are a value of each leaf kind.  Kept by hand and
#: apart from the checker on purpose (see the module docstring).
_TAKES = {
    schema.number: {"frac", "huge", "zero", "neg", "out_of_range"},
    schema.text: {"str"},
    # Not a list, an empty one, or one no distance can be taken to —
    # which a query's ``numbers`` are refused for as well, by the
    # visual query built from them.
    schema.vector: set(),
    schema.numbers: set(),
    schema.image_from_payload: set(),
    PIXELS: set(),
}
#: ... and of one element, where the kind is a list the table does not
#: spell out as a ``ListOf``.
_ELEMENT_TAKES = dict.fromkeys(
    (schema.vector, schema.numbers), _TAKES[schema.number] | {"true"}
)


def _within(low, high, names: set[str]) -> set[str]:
    """Those of the numeric MUTATIONS ``names`` inside ``[low, high]``."""
    return {
        name for name in names
        if (low is None or MUTATIONS[name] >= low)
        and (high is None or MUTATIONS[name] <= high)
    }


def takes(kind: object) -> set[str]:
    """The MUTATIONS that are a value of ``kind`` (they may still mean
    nothing: a latitude of 10**30, a label nobody defined)."""
    if isinstance(kind, schema.Whole):  # any number but the fraction
        return _within(kind.at_least, kind.at_most, _TAKES[schema.number] - {"frac"})
    if isinstance(kind, schema.Ranged):
        return _within(kind.low, kind.high, _TAKES[schema.number])
    if isinstance(kind, schema.Flag):
        return {"null", "str", "true", "huge", "zero", "neg", "out_of_range"}
    if isinstance(kind, schema.Enum):
        return {name for name in ("null", "str") if MUTATIONS[name] in kind.choices}
    if isinstance(kind, schema.ListOf):
        return {"list"}
    if isinstance(kind, schema.Union):
        return set()
    if isinstance(kind, schema.Obj):
        required = [f for f in kind.fields.values() if f.default is schema._REQUIRED]
        return set() if required else {"dict"}
    return _TAKES[kind]


def must_refuse(declared, kind: object, where: str, name: str, element: bool) -> bool:
    """Whether replacing a field of ``kind`` (declared as ``declared``,
    an ``optional`` or nothing for the inside of an image) by mutation
    ``name`` — or by a one-element list of it — leaves a request its
    route has to answer with a 400."""
    if element:
        listed = isinstance(kind, schema.ListOf)
        return name not in (takes(kind.item) if listed else _ELEMENT_TAKES[kind])
    if where == "path" and kind is schema.text:
        return False  # whatever it was, in a path it is a string
    valid = takes(kind)
    if declared is not None and declared.default is not schema._REQUIRED:
        valid = valid | {"missing"} | ({"null"} if declared.default is None else set())
    return name not in valid


def example(kind: object, name: str, good: dict = GOOD) -> object:
    """A well-formed value of ``kind`` for the field called ``name``."""
    if name in good:
        return good[name]
    if isinstance(kind, schema.Obj):
        if not kind.fields:
            return {"x": 1, "y": 2, "w": 10, "h": 12}
        return {n: example(f.kind, n) for n, f in kind.fields.items()}
    if isinstance(kind, schema.ListOf):
        if kind.item is not schema.QUERY:
            return [example(kind.item, "")]
        return [query_body(v) for v in ("spatial", "visual")]
    if isinstance(kind, schema.Enum):
        return kind.choices[0]
    return _PLAIN[kind] if kind in _PLAIN else 1  # a Whole, or a Flag that is on


def query_body(variant: str, without: tuple[str, ...] | None = None) -> dict:
    """A well-formed ``/search`` spec of one kind (``type`` first, as
    the ids of the sweep this replaced had it)."""
    if without is None:
        without = EITHER.get(variant, ((), ()))[0]
    fields = schema.QUERY.variants[variant].fields
    return {"type": variant} | {
        n: example(f.kind, n) for n, f in fields.items() if n not in without
    }


@dataclass(frozen=True)
class Case:
    """One request: well-formed (``mutation == ""``), or with one field
    (``where`` / ``field``) replaced — and then ``refused`` says whether
    the declaration's structure makes that a 400 — or with something
    that is no API key in the key's place (``where == "credential"``)."""

    route: str  # "POST /images/{image_id}/annotations"
    path_values: dict
    params: dict
    body: object
    where: str = ""  # "path" | "query" | "body" | "credential"
    field: str = ""
    mutation: str = ""
    refused: bool = False
    fields: dict = dataclasses.field(default_factory=dict, compare=False)  # of the body
    credential: object = MISSING  # sent in place of the harness's API key

    @property
    def path(self) -> str:
        return self.route.split(" ")[1].format(**self.path_values)

    @property
    def id(self) -> str:
        """``images-fov.lat-nan``: last path segment, field, mutation."""
        mark = {"path": "/", "query": "?", "body": "", "credential": "@"}[self.where]
        return f"{self.path.split('/')[-1]}-{mark}{self.field}-{self.mutation}"


def set_field(holder: object, path: tuple, value: object) -> None:
    for key in path[:-1]:
        holder = holder[key]
    if value is MISSING:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value


def field_paths(fields: dict, value: dict, prefix: tuple = ()):
    """``(path, kind, declared)`` of every declared field present in
    ``value``, at every nesting level, lists included."""
    for name, declared in fields.items():
        if name not in value:
            continue
        path, kind = (*prefix, name), declared.kind
        yield path, kind, declared
        if isinstance(kind, schema.Obj) and kind.fields:
            yield from field_paths(kind.fields, value[name], path)
        elif kind is schema.image_from_payload:
            yield (*path, "pixels_u8"), PIXELS, None
            yield (*path, "pixels_u8", 0, 0, 0), schema.PIXEL, None
        elif isinstance(kind, schema.ListOf) and kind.item is schema.QUERY:
            for position, item in enumerate(value[name]):
                inner = schema.QUERY.variants[item["type"]].fields
                yield from field_paths(inner, item, (*path, position))


def _dotted(path: tuple) -> str:
    """``("queries", 1, "vector")`` as ``queries[1].vector``."""
    parts = [f"[{key}]" if isinstance(key, int) else f".{key}" for key in path]
    return "".join(parts).lstrip(".")


def well_formed(declarations: dict) -> list[Case]:
    """One well-formed request per route — per query kind where the body
    is a query, twice where a kind has two forms."""
    cases = []
    for route, declared in declarations.items():
        base = Case(
            route,
            {n: example(f.kind, n, PATH_GOOD | GOOD) for n, f in declared.path.fields.items()},
            {n: example(f.kind, n) for n, f in declared.query.fields.items()},
            None,
        )
        if declared.body is schema.QUERY:
            for variant, kind in schema.QUERY.variants.items():
                for without in EITHER.get(variant, ((),)):
                    body = query_body(variant, without)
                    cases.append(replace(base, body=body, fields=kind.fields))
        elif declared.body is not None:
            body = example(declared.body, "")
            cases.append(replace(base, body=body, fields=declared.body.fields))
        else:
            cases.append(base)
    return cases


def mutations_of(base: Case, declared: schema.Declaration, first: bool) -> list[Case]:
    """Every single-field mutation of a well-formed request; what does
    not depend on the body's kind only for the ``first`` of a route."""
    cases = []
    if first:
        cases += [
            replace(base, where="credential", field="api_key", mutation=name, credential=value)
            for name, value in BAD_CREDENTIALS.items()
        ]
    for where, fields, values in (
        ("path", declared.path.fields, base.path_values),
        ("query", declared.query.fields, base.params),
        ("body", base.fields, base.body),
    ):
        if values is None or (where != "body" and not first):
            continue
        if where == "body" and first:
            for name, value in BODIES.items():  # none of them is an object
                cases.append(
                    replace(base, body=value, where=where, mutation=name, refused=True)
                )
        for path, kind, declared in field_paths(fields, values):
            listed = isinstance(kind, schema.ListOf) or kind in _ELEMENT_TAKES
            for name, value in MUTATIONS.items():
                if where == "path" and value is MISSING:
                    continue  # a path without the segment is another route
                for suffix, mutant in (("", value), ("[]", [value])) if listed else (("", value),):
                    if mutant == [MISSING]:
                        continue
                    changed = copy.deepcopy(values)
                    set_field(changed, path, mutant)
                    slot = {"path": "path_values", "query": "params", "body": "body"}[where]
                    orphans = name in ("missing", "null") and any(
                        ONLY_WITH.get(other) == path[-1] for other in values
                    )
                    cases.append(
                        replace(
                            base, where=where, field=_dotted(path) + suffix,
                            mutation=name, **{slot: changed},
                            refused=orphans
                            or must_refuse(declared, kind, where, name, bool(suffix)),
                        )
                    )
    return cases


def sweep(declarations: dict) -> list[Case]:
    """Every route x every declared field at every nesting level x every
    mutation, and every route x every bad credential."""
    cases, seen = [], set()
    for base in well_formed(declarations):
        cases += mutations_of(base, declarations[base.route], base.route not in seen)
        seen.add(base.route)
    return cases


# -- a service with something behind every route -----------------------------------


@dataclass
class Harness:
    """A service in the state :data:`GOOD` describes: two annotated
    images with features, a trained model, a campaign with open tasks."""

    service: TVDPService
    api_key: str

    def _resolve(self, value: object) -> object:
        if value is Live.OPEN_TASK:
            tasks = self.call("GET", "/campaigns/1/tasks").body["tasks"]
            return tasks[0]["task_id"]
        if value is Live.TRACE:
            return obs.ring_buffer().spans()[-1].trace_id
        if value is Live.REQUEST:
            return [r.request_id for r in obs.records().records() if r.request_id][-1]
        if isinstance(value, dict):
            return {k: self._resolve(v) for k, v in value.items()}
        if isinstance(value, list):
            return [self._resolve(v) for v in value]
        return value

    def call(
        self, method: str, path: str, body: object = None, params=None,
        api_key: object = MISSING,
    ) -> Response:
        if api_key is MISSING:
            api_key = self.api_key
        return self.service.handle(Request(method, path, params or {}, body, api_key=api_key))

    def resolve(self, case: Case) -> Case:
        """``case`` with every :class:`Live` value filled in."""
        return replace(
            case,
            path_values=self._resolve(case.path_values),
            params=self._resolve(case.params),
            body=self._resolve(case.body),
        )

    def send(self, case: Case, route: str | None = None) -> Response:
        """Send ``case`` (on ``route``, when another one takes the same
        request)."""
        case = self.resolve(replace(case, route=route or case.route))
        return self.call(
            case.route.split(" ")[0], case.path, case.body, case.params, case.credential
        )

    def state(self) -> tuple:
        """Everything a failed write must leave as it was."""
        service = self.service
        return (
            service.platform.db.row_counts(),
            service.models.names(),
            sorted(service._campaigns),
            [len(c.open_tasks) + len(c.completed_tasks) for c in service._campaigns.values()],
        )


def harness(shards: int = 1) -> Harness:
    platform = TVDP(shards=shards) if shards > 1 else TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    service = TVDPService(platform, deterministic_keys=True)
    client = TVDPClient(service)
    client.create_key(client.register_user("table", role="researcher"))
    h = Harness(service, client.api_key)
    labels = GOOD["labels"]
    client.define_classification(GOOD["classification"], labels)
    for pixels, label in zip((IMAGE, OTHER_IMAGE), labels):
        upload = example(schema.ROUTES["POST /images"].body, "") | {"image": pixels}
        image_id = h.call("POST", "/images", upload).body["image_id"]
        client.annotate(image_id, GOOD["classification"], label)
        client.get_features(EXTRACTOR, image_id=image_id)
    client.devise_model(MODEL, EXTRACTOR, GOOD["classification"], GOOD["classifier"])
    client.train_model(MODEL)
    client.create_campaign(example(schema.REGION, ""))
    return h


def assert_is_error_envelope(response: Response) -> None:
    error = response.body["error"]
    assert error["status"] == response.status and error["type"]
    assert error["message"] and error["request_id"]
