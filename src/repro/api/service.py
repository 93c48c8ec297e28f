"""The TVDP REST service: the paper's seven common APIs over a router.

Routes (all except user creation require an API key):

* ``POST /users``                       — register a participant
* ``POST /keys``                        — issue an API key
* ``POST /images``                      — (1) add new data
* ``POST /search``                      — (2) search datasets
* ``GET  /images/{id}``                 — (3) download data/metadata
* ``POST /features/{extractor}``        — (4) get visual features
* ``POST /models/{name}/predict``       — (5) use ML models
* ``GET  /models/{name}/download``      — (6) download ML models
* ``POST /models``                      — (7) devise new ML models
* ``POST /models/{name}/train``         — train a devised model
* ``GET  /stats``                       — platform statistics

Plus the Acquisition/Analysis extensions:

* ``POST /classifications``             — define a label vocabulary
* ``POST /images/{id}/annotations``     — attach a label
* ``GET  /images/{id}/annotations``     — read shared knowledge
* ``POST /campaigns``                   — open a crowdsourcing campaign
* ``GET  /campaigns/{id}/tasks``        — tasks for current coverage gaps
* ``POST /campaigns/{id}/captures``     — submit a task's capture

Observability:

* ``GET  /metrics``                     — metrics snapshot (JSON by
  default; ``?format=prometheus`` for the text exposition format,
  served as ``text/plain; version=0.0.4``)
* ``GET  /health``                      — SLO evaluation: overall
  ``ok|degraded|failing`` plus per-objective burn ratios
* ``GET  /debug/slow``                  — slow-span exemplars (worst
  spans per operation with ancestry and probe-counter deltas;
  ``?op=<span name>`` and ``?limit=<n>`` filter)
* ``GET  /debug/hot``                   — hot-query report: normalized
  query shapes ranked by frequency then total time (``?limit=<n>``)
* ``GET  /debug/explain``               — EXPLAIN for a query spec in
  the request body; ``?analyze=1`` (the default) also executes it and
  fills per-plan-node rows, timing, and probe-counter deltas
* ``GET  /debug/resources``             — resource accounting: top
  consumers by principal/query shape/operation, rolling spend, and
  budget would-shed dry-run flags (``?top=``, ``?budget=``,
  ``?window_s=`` for what-if budgets)
* ``GET  /debug/trace/{trace_id}``      — the reassembled span tree of
  one trace (404 once evicted from the ring buffer)
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro import obs
from repro.errors import (
    APIError,
    FeatureError,
    MalformedQueryError,
    QueryError,
    TVDPError,
)
from repro.api.auth import ApiKeyManager
from repro.api.http import Request, Response, Router, error_body, new_request_id
from repro.api.modelstore import ModelRecord, ModelStore, serialize_classifier
from repro.core.platform import TVDP
from repro.crowd.campaign import Campaign
from repro.crowd.coverage import measure_coverage
from repro.core.queries import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
)
from repro.geo.fov import FieldOfView
from repro.geo.point import BoundingBox, GeoPoint
from repro.imaging.image import Image
from repro.ml.linear import LogisticRegression
from repro.ml.svm import LinearSVM

_log = obs.get_logger("api.service")

#: What untrusted payload parsing can legitimately raise: missing keys,
#: wrong shapes/types, bad numeric values, and domain validation errors.
#: Anything else (AttributeError, MemoryError, ...) is a bug and must
#: propagate to the router's 500 boundary handler instead of being
#: rebranded as a client error.
_PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, TVDPError)


def image_to_payload(image: Image) -> dict:
    """JSON-compatible encoding of an image (8-bit nested lists)."""
    return {"pixels_u8": image.to_uint8().tolist()}


def image_from_payload(payload: object) -> Image:
    """Inverse of :func:`image_to_payload`."""
    if not isinstance(payload, dict) or "pixels_u8" not in payload:
        raise APIError(400, "image payload must be an object with 'pixels_u8'")
    try:
        return Image.from_uint8(np.array(payload["pixels_u8"], dtype=np.uint8))
    except _PAYLOAD_ERRORS as exc:
        _log.debug("rejected image payload", exc_info=True)
        raise APIError(400, f"bad image payload: {exc}") from exc


def _number(body: dict, field: str, default: float | None = None) -> float:
    """``body[field]`` as a finite float; anything but a JSON number
    (``null``, a string, a list, NaN, a bool) is the caller's fault."""
    value = body.get(field, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise APIError(400, f"field {field!r} must be a finite number, got {value!r}")
    return float(value)


def _integer(body: dict, field: str) -> int:
    """``body[field]`` as an integer (a JSON number, not a bool)."""
    value = body.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise APIError(400, f"field {field!r} must be an integer, got {value!r}")
    return value


def _whole(body: dict, field: str, default: int) -> int:
    """``body[field]`` as an int: a whole number, or a string spelling
    one (``5``, ``5.0``, ``"5"``).  A bool or a fraction is the caller's
    fault, not a 1 or a rounded-down count."""
    value = body.get(field, default)
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if number.is_integer():
            return int(number)
    raise APIError(400, f"field {field!r} must be a whole number, got {value!r}")


def _text(body: dict, field: str) -> str:
    """``body[field]`` as a string: names key tables and registries, so
    a number or a list there is the caller's fault, not a lookup miss."""
    value = body.get(field)
    if not isinstance(value, str):
        raise APIError(400, f"field {field!r} must be a string, got {value!r}")
    return value


def _texts(body: dict, field: str, default: object = None) -> tuple[str, ...]:
    """``body[field]`` as a tuple of strings (a JSON list of them)."""
    value = body.get(field, default)
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise APIError(400, f"field {field!r} must be a list of strings")
    return tuple(value)


def _query_failure(exc: QueryError) -> APIError:
    """A query that failed at execution: malformed is the caller's
    fault (400); anything else is the catalog's state — an extractor
    not indexed yet, an unknown label (409)."""
    if isinstance(exc, MalformedQueryError):
        return APIError(400, f"bad query: {exc}")
    return APIError(409, str(exc))


_FOV_FIELDS = ("lat", "lng", "direction_deg", "angle_deg", "range_m")

_CLASSIFIER_FACTORIES = {
    "svm": lambda: LinearSVM(epochs=40),
    "logistic_regression": lambda: LogisticRegression(epochs=60),
}


class TVDPService:
    """HTTP-style facade over a :class:`TVDP` platform instance."""

    def __init__(self, platform: TVDP, deterministic_keys: bool = False) -> None:
        self.platform = platform
        self.keys = ApiKeyManager(
            platform.db, deterministic_seed=0 if deterministic_keys else None
        )
        self.models = ModelStore()
        self.router = Router()
        # Campaign registry is mutated by concurrent requests; id
        # allocation and insertion happen together under this lock.
        self._lock = threading.RLock()
        self._campaigns: dict[int, Campaign] = {}
        self._next_campaign_id = 1
        self._register_routes()

    # -- plumbing ---------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Entry point: authenticate (except open routes) and dispatch."""
        if request.request_id is None:
            request.request_id = new_request_id()
        open_routes = {
            ("POST", "/users"),
            ("POST", "/keys"),
            ("GET", "/metrics"),
            ("GET", "/health"),  # load balancers probe without credentials
        }
        if (request.method.upper(), request.path) not in open_routes:
            try:
                request.user_id = self.keys.validate(request.api_key)
            except APIError as exc:
                obs.metrics().counter(
                    "api.errors",
                    {"route": request.path, "exception": type(exc).__name__},
                ).inc()
                return Response(
                    status=exc.status,
                    body=error_body(
                        exc.message,
                        type(exc).__name__,
                        exc.status,
                        request.request_id,
                    ),
                )
        return self.router.dispatch(request)

    def _body(self, request: Request) -> dict:
        if request.body is None:
            raise APIError(400, "request body required")
        if not isinstance(request.body, dict):
            raise APIError(400, "request body must be a JSON object")
        return request.body

    def _register_routes(self) -> None:
        route = self.router.route
        route("POST", "/users")(self._create_user)
        route("POST", "/keys")(self._create_key)
        route("POST", "/images")(self._add_image)
        route("GET", "/images/{image_id}")(self._get_image)
        route("POST", "/search")(self._search)
        route("POST", "/features/{extractor}")(self._features)
        route("POST", "/models")(self._devise_model)
        route("POST", "/models/{name}/train")(self._train_model)
        route("POST", "/models/{name}/predict")(self._predict)
        route("GET", "/models/{name}/download")(self._download_model)
        route("GET", "/stats")(self._stats)
        route("GET", "/metrics")(self._metrics)
        route("GET", "/health")(self._health)
        route("GET", "/debug/slow")(self._debug_slow)
        route("GET", "/debug/hot")(self._debug_hot)
        route("GET", "/debug/explain")(self._debug_explain)
        route("GET", "/debug/resources")(self._debug_resources)
        route("GET", "/debug/trace/{trace_id}")(self._debug_trace)
        route("POST", "/classifications")(self._define_classification)
        route("POST", "/images/{image_id}/annotations")(self._add_annotation)
        route("GET", "/images/{image_id}/annotations")(self._list_annotations)
        route("GET", "/routes")(self._list_routes)
        route("POST", "/campaigns")(self._create_campaign)
        route("GET", "/campaigns/{campaign_id}/tasks")(self._campaign_tasks)
        route("POST", "/campaigns/{campaign_id}/captures")(self._campaign_capture)

    # -- open routes ------------------------------------------------------------

    def _create_user(self, request: Request) -> Response:
        body = self._body(request)
        if "name" not in body or "role" not in body:
            raise APIError(400, "user needs 'name' and 'role'")
        organization = (
            _text(body, "organization") if body.get("organization") is not None else None
        )
        user_id = self.platform.add_user(
            _text(body, "name"), _text(body, "role"), organization
        )
        return Response(201, {"user_id": user_id})

    def _create_key(self, request: Request) -> Response:
        body = self._body(request)
        if "user_id" not in body:
            raise APIError(400, "'user_id' required")
        user_id = _integer(body, "user_id")
        try:
            key = self.keys.issue(user_id)
        except TVDPError as exc:
            raise APIError(404, str(exc)) from exc
        return Response(201, {"api_key": key})

    # -- API 1: add new data -------------------------------------------------------

    def _add_image(self, request: Request) -> Response:
        body = self._body(request)
        for required in ("image", "fov", "captured_at", "uploaded_at"):
            if required not in body:
                raise APIError(400, f"missing field {required!r}")
        fov_body = body["fov"]
        if not isinstance(fov_body, dict):
            raise APIError(400, "bad fov: must be a JSON object")
        try:
            fov = FieldOfView.from_dict(
                {name: _number(fov_body, name) for name in _FOV_FIELDS}
            )
        except _PAYLOAD_ERRORS as exc:
            _log.debug("rejected fov payload", exc_info=True)
            raise APIError(400, f"bad fov: {exc}") from exc
        receipt = self.platform.upload_image(
            image=image_from_payload(body["image"]),
            fov=fov,
            captured_at=_number(body, "captured_at"),
            uploaded_at=_number(body, "uploaded_at"),
            keywords=_texts(body, "keywords", ()),
            uploader_id=request.user_id,
        )
        return Response(
            201 if not receipt.deduplicated else 200,
            {"image_id": receipt.image_id, "deduplicated": receipt.deduplicated},
        )

    # -- API 3: download data -----------------------------------------------------

    def _get_image(self, request: Request) -> Response:
        try:
            image_id = int(request.path_params["image_id"])
        except ValueError as exc:
            raise APIError(400, "image id must be an integer") from exc
        try:
            row = self.platform.db.table("images").get(image_id)
        except TVDPError as exc:
            raise APIError(404, str(exc)) from exc
        body: dict = {"metadata": row}
        if request.params.get("include_pixels"):
            body["image"] = image_to_payload(self.platform.image(image_id))
        return Response(200, body)

    # -- API 2: search --------------------------------------------------------------

    def _parse_query(self, spec: object) -> object:
        if not isinstance(spec, dict):
            raise APIError(400, f"a query must be a JSON object, got {spec!r}")
        kind = spec.get("type")
        # Nothing in this block executes the query, so a TypeError or
        # ValueError here can only come from a field of the wrong shape
        # (a list where a number goes, "x" for k, a string in a vector).
        try:
            if kind == "spatial":
                region = (
                    BoundingBox.from_dict(spec["region"]) if "region" in spec else None
                )
                point = (
                    GeoPoint.from_dict(spec["point"]) if "point" in spec else None
                )
                return SpatialQuery(
                    region=region,
                    point=point,
                    radius_m=spec.get("radius_m"),
                    mode=spec.get("mode", "scene"),
                    direction_deg=spec.get("direction_deg"),
                    direction_tolerance_deg=spec.get("direction_tolerance_deg", 45.0),
                )
            if kind == "visual":
                example = (
                    image_from_payload(spec["example"]) if "example" in spec else None
                )
                vector = (
                    np.array(spec["vector"], dtype=np.float64)
                    if "vector" in spec
                    else None
                )
                return VisualQuery(
                    extractor_name=_text(spec, "extractor"),
                    example=example,
                    vector=vector,
                    k=_whole(spec, "k", 10),
                    max_distance=spec.get("max_distance"),
                )
            if kind == "categorical":
                return CategoricalQuery(
                    classification=_text(spec, "classification"),
                    labels=_texts(spec, "labels"),
                    min_confidence=float(spec.get("min_confidence", 0.0)),
                    source=spec.get("source"),
                )
            if kind == "textual":
                return TextualQuery(
                    text=spec["text"], match=spec.get("match", "any")
                )
            if kind == "temporal":
                return TemporalQuery(
                    start=spec.get("start"),
                    end=spec.get("end"),
                    field=spec.get("field", "timestamp_capturing"),
                )
            if kind == "hybrid":
                return HybridQuery(
                    queries=tuple(self._parse_query(s) for s in spec["queries"])
                )
        except (KeyError, TypeError, ValueError, TVDPError) as exc:
            raise APIError(400, f"bad query: {exc}") from exc
        raise APIError(400, f"unknown query type {kind!r}")

    def _search(self, request: Request) -> Response:
        query = self._parse_query(self._body(request))
        try:
            results = self.platform.execute(query)
        except QueryError as exc:
            raise _query_failure(exc) from exc
        return Response(
            200,
            {
                "results": [
                    {"image_id": r.image_id, "score": r.score} for r in results
                ]
            },
        )

    # -- API 4: get visual features ---------------------------------------------------

    def _features(self, request: Request) -> Response:
        extractor_name = request.path_params["extractor"]
        body = self._body(request)
        try:
            extractor = self.platform.features.get(extractor_name)
        except FeatureError as exc:
            raise APIError(404, str(exc)) from exc
        if "image" in body:
            vector = extractor.extract(image_from_payload(body["image"]))
        elif "image_id" in body:
            image_id = _integer(body, "image_id")
            try:
                vector = self.platform.feature_vector(image_id, extractor_name)
            except TVDPError as exc:
                raise APIError(404, str(exc)) from exc
        else:
            raise APIError(400, "provide 'image' or 'image_id'")
        return Response(200, {"vector": vector.tolist(), "dimension": len(vector)})

    # -- APIs 5-7: models ----------------------------------------------------------------

    def _devise_model(self, request: Request) -> Response:
        body = self._body(request)
        for required in ("name", "extractor", "classification", "classifier"):
            if required not in body:
                raise APIError(400, f"missing field {required!r}")
            _text(body, required)
        if body["classifier"] not in _CLASSIFIER_FACTORIES:
            raise APIError(
                400,
                f"unknown classifier {body['classifier']!r}; "
                f"available: {sorted(_CLASSIFIER_FACTORIES)}",
            )
        if body["extractor"] not in self.platform.features:
            raise APIError(404, f"unknown extractor {body['extractor']!r}")
        record = ModelRecord(
            name=body["name"],
            extractor_name=body["extractor"],
            classification=body["classification"],
            owner_id=request.user_id,
            classifier=_CLASSIFIER_FACTORIES[body["classifier"]](),
            description=body.get("description", ""),
        )
        self.models.register(record)
        return Response(201, {"model": record.name})

    def _train_model(self, request: Request) -> Response:
        record = self.models.get(request.path_params["name"])
        body = self._body(request)
        source = body.get("source", "human")
        min_confidence = float(body.get("min_confidence", 0.0))
        labels = self.platform.catalog.labels(record.classification)
        X_rows, y_rows = [], []
        for label in labels:
            hits = self.platform.annotations.images_with_label(
                record.classification, (label,), min_confidence, source=source
            )
            for image_id in hits:
                vector = self.platform.feature_vector(image_id, record.extractor_name)
                X_rows.append(vector)
                y_rows.append(label)
        if len(set(y_rows)) < 2:
            raise APIError(
                409, "need annotated images from at least two labels to train"
            )
        X = np.vstack(X_rows)
        y = np.array(y_rows)
        record.train(X, y)
        return Response(200, {"model": record.name, "trained_on": int(X.shape[0])})

    def _predict(self, request: Request) -> Response:
        record = self.models.get(request.path_params["name"])
        body = self._body(request)
        if "image" in body:
            extractor = self.platform.features.get(record.extractor_name)
            vector = extractor.extract(image_from_payload(body["image"]))
        elif "vector" in body:
            vector = np.array(body["vector"], dtype=np.float64)
        elif "image_id" in body:
            vector = self.platform.feature_vector(
                int(body["image_id"]), record.extractor_name
            )
        else:
            raise APIError(400, "provide 'image', 'vector', or 'image_id'")
        try:
            label, confidence = record.predict_one(vector)
        except TVDPError as exc:
            raise APIError(409, f"model not ready: {exc}") from exc
        annotated = False
        if body.get("annotate") and "image_id" in body:
            self.platform.annotations.annotate(
                int(body["image_id"]),
                record.classification,
                str(label),
                confidence=confidence,
                source="machine",
                annotator=record.name,
            )
            annotated = True
        return Response(
            200,
            {"label": str(label), "confidence": confidence, "annotated": annotated},
        )

    def _download_model(self, request: Request) -> Response:
        record = self.models.get(request.path_params["name"])
        payload = serialize_classifier(record.classifier)
        payload["extractor"] = record.extractor_name
        payload["classification"] = record.classification
        return Response(200, payload)

    # -- classifications & annotations --------------------------------------------------

    def _define_classification(self, request: Request) -> Response:
        body = self._body(request)
        if "name" not in body or "labels" not in body:
            raise APIError(400, "classification needs 'name' and 'labels'")
        try:
            cid = self.platform.catalog.define(
                _text(body, "name"),
                list(_texts(body, "labels")),
                description=body.get("description", ""),
                owner_id=request.user_id,
            )
        except QueryError as exc:
            raise APIError(400, str(exc)) from exc
        return Response(201, {"classification_id": cid})

    def _add_annotation(self, request: Request) -> Response:
        body = self._body(request)
        try:
            image_id = int(request.path_params["image_id"])
        except ValueError as exc:
            raise APIError(400, "image id must be an integer") from exc
        for required in ("classification", "label"):
            if required not in body:
                raise APIError(400, f"missing field {required!r}")
        if not isinstance(body["classification"], str):
            raise APIError(400, "field 'classification' must be a string")
        try:
            annotation_id = self.platform.annotations.annotate(
                image_id,
                body["classification"],
                body["label"],
                confidence=_number(body, "confidence", 1.0),
                source=body.get("source", "human"),
                annotator=body.get("annotator"),
                created_at=_number(body, "created_at", 0.0),
                bbox=body.get("bbox"),
            )
        except (QueryError, TVDPError) as exc:
            raise APIError(400, str(exc)) from exc
        return Response(201, {"annotation_id": annotation_id})

    def _list_annotations(self, request: Request) -> Response:
        try:
            image_id = int(request.path_params["image_id"])
        except ValueError as exc:
            raise APIError(400, "image id must be an integer") from exc
        annotations = self.platform.annotations.annotations_of(image_id)
        return Response(
            200,
            {
                "annotations": [
                    {
                        "annotation_id": a.annotation_id,
                        "classification": a.classification,
                        "label": a.label,
                        "confidence": a.confidence,
                        "source": a.source,
                        "annotator": a.annotator,
                    }
                    for a in annotations
                ]
            },
        )

    def _list_routes(self, request: Request) -> Response:
        """API discovery: every route the service exposes."""
        return Response(200, {"routes": self.router.routes()})

    # -- crowdsourcing campaigns ---------------------------------------------------------

    def _create_campaign(self, request: Request) -> Response:
        body = self._body(request)
        if "region" not in body:
            raise APIError(400, "campaign needs a 'region'")
        with self._lock:
            try:
                region = BoundingBox.from_dict(body["region"])
                campaign = Campaign(
                    campaign_id=self._next_campaign_id,
                    owner=str(request.user_id),
                    region=region,
                    description=body.get("description", ""),
                    target_coverage=float(body.get("target_coverage", 0.9)),
                    min_directions=int(body.get("min_directions", 1)),
                    reward_per_task=float(body.get("reward_per_task", 1.0)),
                )
            except _PAYLOAD_ERRORS as exc:
                _log.debug("rejected campaign spec", exc_info=True)
                raise APIError(400, f"bad campaign spec: {exc}") from exc
            self._campaigns[campaign.campaign_id] = campaign
            self._next_campaign_id += 1
        return Response(201, {"campaign_id": campaign.campaign_id})

    def _get_campaign(self, request: Request) -> Campaign:
        try:
            campaign_id = int(request.path_params["campaign_id"])
        except ValueError as exc:
            raise APIError(400, "campaign id must be an integer") from exc
        with self._lock:
            if campaign_id not in self._campaigns:
                raise APIError(404, f"no campaign {campaign_id}")
            return self._campaigns[campaign_id]

    def _campaign_tasks(self, request: Request) -> Response:
        """Tasks for the campaign region's *current* coverage gaps,
        measured over everything the platform has already indexed."""
        campaign = self._get_campaign(request)
        fovs = [
            self.platform.fov(row["image_id"])
            for row in self.platform.db.table("image_fov").all_rows()
        ]
        in_region = [f for f in fovs if campaign.region.intersects(f.mbr())]
        report = measure_coverage(
            in_region,
            campaign.region,
            rows=int(request.params.get("rows", 8)),
            cols=int(request.params.get("cols", 8)),
            min_directions=campaign.min_directions,
        )
        max_tasks = request.params.get("max_tasks")
        tasks = campaign.regenerate_tasks(
            report, max_tasks=int(max_tasks) if max_tasks else None
        )
        return Response(
            200,
            {
                "coverage": report.coverage_ratio,
                "target": campaign.target_coverage,
                "tasks": [
                    {
                        "task_id": t.task_id,
                        "lat": t.location.lat,
                        "lng": t.location.lng,
                        "direction_deg": t.direction_deg,
                        "reward": t.reward,
                    }
                    for t in tasks
                ],
            },
        )

    def _campaign_capture(self, request: Request) -> Response:
        """Submit one capture fulfilling a campaign task: the image is
        uploaded like any other and the task is paid out."""
        campaign = self._get_campaign(request)
        body = self._body(request)
        for required in ("task_id", "image", "fov", "captured_at"):
            if required not in body:
                raise APIError(400, f"missing field {required!r}")
        task = campaign.find_open(int(body["task_id"]))
        if task is None:
            raise APIError(404, f"no open task {body['task_id']} in campaign")
        try:
            fov = FieldOfView.from_dict(body["fov"])
        except _PAYLOAD_ERRORS as exc:
            _log.debug("rejected fov payload", exc_info=True)
            raise APIError(400, f"bad fov: {exc}") from exc
        receipt = self.platform.upload_image(
            image=image_from_payload(body["image"]),
            fov=fov,
            captured_at=float(body["captured_at"]),
            uploaded_at=float(body.get("uploaded_at", body["captured_at"])),
            uploader_id=request.user_id,
        )
        campaign.complete(task)
        return Response(
            201,
            {
                "image_id": receipt.image_id,
                "deduplicated": receipt.deduplicated,
                "reward": task.reward,
            },
        )

    # -- stats ------------------------------------------------------------------------

    def _stats(self, request: Request) -> Response:
        stats = self.platform.stats()
        stats["models"] = self.models.names()
        return Response(200, stats)

    def _metrics(self, request: Request) -> Response:
        """Observability endpoint: the process-wide metrics registry.

        JSON by default; ``?format=prometheus`` returns the bare text
        exposition with the scrape content type Prometheus expects
        (``text/plain; version=0.0.4``) instead of a JSON envelope.
        """
        registry = obs.metrics()
        if request.params.get("format") == "prometheus":
            return Response(
                200,
                {},
                content_type="text/plain; version=0.0.4",
                text=registry.render_prometheus(),
            )
        return Response(
            200,
            {
                "metrics": registry.snapshot(),
                "prometheus": registry.render_prometheus(),
            },
        )

    def _health(self, request: Request) -> Response:
        """SLO evaluation over the live registry (see ``repro.obs.slo``),
        plus every registered circuit breaker's live state.

        Always a 200 — the payload's ``status`` field carries
        ``ok|degraded|failing`` so probes distinguish "service down"
        (no response) from "service unhealthy" (failing objectives).
        An open breaker alone degrades the report: traffic is being
        shed even if the SLO windows have not burned through yet.
        """
        from repro.resilience import breaker_states

        report = obs.health()
        breakers = breaker_states()
        report["breakers"] = breakers
        if report["status"] == "ok" and any(
            b["state"] == "open" for b in breakers.values()
        ):
            report["status"] = "degraded"
        return Response(200, report)

    def _debug_slow(self, request: Request) -> Response:
        """Slow-span exemplars: the worst spans per operation, each with
        its ancestry and the counter increments its work produced."""
        op = request.params.get("op")
        limit = request.params.get("limit")
        try:
            parsed_limit = int(limit) if limit is not None else None
        except ValueError as exc:
            raise APIError(400, "limit must be an integer") from exc
        if parsed_limit is not None and parsed_limit < 1:
            raise APIError(400, "limit must be >= 1")
        return Response(
            200,
            {
                "operations": obs.slow_log().operations(),
                "slow": obs.slow_spans(op, parsed_limit),
            },
        )

    def _debug_hot(self, request: Request) -> Response:
        """Hot-query report: the workload's normalized query shapes
        ranked by frequency then total time (see
        ``repro.core.queries.query_shape``)."""
        unknown = sorted(set(request.params) - {"limit"})
        if unknown:
            # A misspelt bound must not silently fall back to the default.
            raise APIError(400, f"unknown parameter(s) {unknown}; takes 'limit'")
        limit = request.params.get("limit")
        try:
            parsed_limit = int(limit) if limit is not None else 10
        except ValueError as exc:
            raise APIError(400, "limit must be an integer") from exc
        if parsed_limit < 1:
            raise APIError(400, "limit must be >= 1")
        tracker = obs.hot_queries()
        return Response(
            200,
            {
                "hot": tracker.top(parsed_limit),
                "tracked": len(tracker),
                "evicted": tracker.evicted(),
            },
        )

    def _debug_resources(self, request: Request) -> Response:
        """Resource accounting: top consumers by principal, query
        shape, and operation, with rolling spend and would-shed
        dry-run flags.

        ``?top=<n>`` bounds each ranking (default 10).  ``?budget=<cost>``
        (optionally with ``?window_s=<s>``, default 60) evaluates a
        what-if admission budget against the recorded spend without
        configuring one — nothing is ever actually shed here.
        """
        top = request.params.get("top")
        try:
            parsed_top = int(top) if top is not None else 10
        except ValueError as exc:
            raise APIError(400, "top must be an integer") from exc
        if parsed_top < 1:
            raise APIError(400, "top must be >= 1")
        override = None
        budget_param = request.params.get("budget")
        if budget_param is not None:
            try:
                cost_per_window = float(budget_param)
                window_s = float(request.params.get("window_s", 60.0))
            except ValueError as exc:
                raise APIError(400, "budget and window_s must be numeric") from exc
            if cost_per_window < 0 or window_s <= 0:
                raise APIError(400, "budget must be >= 0 and window_s > 0")
            override = obs.Budget(cost_per_window=cost_per_window, window_s=window_s)
        return Response(200, obs.usage().report(top=parsed_top, budget=override))

    def _debug_trace(self, request: Request) -> Response:
        """The full span tree of one trace, reassembled from the ring
        buffer of finished spans; 404 once the trace has been evicted
        (the buffer keeps the most recent spans only)."""
        trace_id = request.path_params["trace_id"]
        roots = obs.ring_buffer().span_tree(trace_id)
        if not roots:
            raise APIError(
                404, f"trace {trace_id!r} not in the ring buffer (evicted or unknown)"
            )
        span_count = len(
            [s for s in obs.ring_buffer().spans() if s.trace_id == trace_id]
        )
        return Response(
            200, {"trace_id": trace_id, "spans": span_count, "roots": roots}
        )

    def _debug_explain(self, request: Request) -> Response:
        """EXPLAIN (ANALYZE) a query spec without returning its results.

        The body is the same query spec ``POST /search`` takes.  With
        ``?analyze=1`` (the default) the query is executed and every
        plan node carries actual rows, elapsed time, and probe-counter
        deltas; ``?analyze=0`` returns the bare access-path plan.
        """
        from repro.core.planner import explain

        query = self._parse_query(self._body(request))
        analyze = request.params.get("analyze", "1") not in ("0", "false", "no")
        try:
            plan = explain(self.platform, query, analyze=analyze)
        except QueryError as exc:
            raise _query_failure(exc) from exc
        return Response(
            200,
            {
                "analyze": analyze,
                "plan": plan.to_dict(),
                "rendered": plan.render(),
            },
        )
