"""The TVDP REST service: the paper's seven common APIs over a router.

Routes (all require an API key except those :data:`~repro.api.schema.ROUTES`
declares ``open``: user creation, key issue, ``/metrics``, ``/health``):

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
* ``GET  /debug/request/{request_id}``  — one request's record: spans,
  query shapes, bill, counter deltas (404 once evicted; the
  ``request_id`` is the one every error envelope returns)

What each route takes — path, query and body fields, their kinds and
defaults — is declared once, in :data:`repro.api.schema.ROUTES`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.errors import APIError, MalformedQueryError, QueryError, TVDPError
from repro.api.auth import ApiKeyManager
from repro.api.http import Request, Response, Router, error_body, new_request_id
from repro.api.modelstore import (
    CLASSIFIER_FACTORIES,
    ModelRecord,
    ModelStore,
    serialize_classifier,
)
from repro.api.schema import ROUTES, image_to_payload
from repro.core.platform import TVDP
from repro.crowd.campaign import Campaign
from repro.crowd.coverage import measure_coverage


def _query_failure(exc: QueryError) -> APIError:
    """A query that failed at execution: malformed is the caller's
    fault (400); anything else is the catalog's state — an extractor
    not indexed yet, an unknown label (409)."""
    if isinstance(exc, MalformedQueryError):
        return APIError(400, f"bad query: {exc}")
    return APIError(409, str(exc))


class TVDPService:
    """HTTP-style facade over a :class:`TVDP` platform instance.

    What each route takes is declared in :data:`repro.api.schema.ROUTES`
    and checked by the router, so every handler below reads typed values
    off ``request.path_params`` / ``.params`` / ``.body`` and is left
    with the lookups (404), the catalog's state (409) and the work."""

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
        """Entry point: resolve the route, authenticate unless its
        declaration says it is open, dispatch.  Openness is the matched
        template's (``GET /health/`` is as open as ``GET /health``); a
        path no route takes is asked for a key first (401 before 404)."""
        if request.request_id is None:
            request.request_id = new_request_id()
        resolved = self.router.resolve(request.method.upper(), request.path)
        declaration = resolved[2]
        if declaration is None or not declaration.open:
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
        return self.router.dispatch(request, resolved)

    def _register_routes(self) -> None:
        def route(method: str, template: str):
            # A route without a declaration cannot be registered.
            return self.router.route(method, template, ROUTES[f"{method} {template}"])

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
        route("GET", "/debug/request/{request_id}")(self._debug_request)
        route("POST", "/classifications")(self._define_classification)
        route("POST", "/images/{image_id}/annotations")(self._add_annotation)
        route("GET", "/images/{image_id}/annotations")(self._list_annotations)
        route("GET", "/routes")(self._list_routes)
        route("POST", "/campaigns")(self._create_campaign)
        route("GET", "/campaigns/{campaign_id}/tasks")(self._campaign_tasks)
        route("POST", "/campaigns/{campaign_id}/captures")(self._campaign_capture)

    # -- open routes ------------------------------------------------------------

    def _create_user(self, request: Request) -> Response:
        body = request.body
        user_id = self.platform.add_user(
            body["name"], body["role"], body["organization"]
        )
        return Response(201, {"user_id": user_id})

    def _create_key(self, request: Request) -> Response:
        try:
            key = self.keys.issue(request.body["user_id"])
        except TVDPError as exc:
            raise APIError(404, str(exc)) from exc
        return Response(201, {"api_key": key})

    # -- API 1: add new data -------------------------------------------------------

    def _add_image(self, request: Request) -> Response:
        receipt = self.platform.upload_image(**request.body, uploader_id=request.user_id)
        return Response(
            201 if not receipt.deduplicated else 200,
            {"image_id": receipt.image_id, "deduplicated": receipt.deduplicated},
        )

    # -- API 3: download data -----------------------------------------------------

    def _get_image(self, request: Request) -> Response:
        image_id = request.path_params["image_id"]
        try:
            row = self.platform.db.table("images").get(image_id)
        except TVDPError as exc:
            raise APIError(404, str(exc)) from exc
        body: dict = {"metadata": row}
        if request.params["include_pixels"]:
            body["image"] = image_to_payload(self.platform.image(image_id))
        return Response(200, body)

    # -- API 2: search --------------------------------------------------------------

    def _search(self, request: Request) -> Response:
        try:
            answer = self.platform.answer(request.body)
        except QueryError as exc:
            raise _query_failure(exc) from exc
        body: dict = {
            "results": [
                {"image_id": image_id, "score": score}
                for image_id, score in answer.pairs()
            ]
        }
        if answer.failed_shards:
            # A sharded platform lost shards after every retry: what is
            # here is a subset, and the caller is told so.
            body["partial"] = True
            body["failed_shards"] = list(answer.failed_shards)
        return Response(200, body)

    # -- API 4: get visual features ---------------------------------------------------

    def _vector_of(self, body: dict, extractor_name: str) -> np.ndarray:
        """The feature vector a body names: of the raw ``image`` it
        carries, the ``vector`` itself, or of the stored ``image_id``."""
        try:
            if body["image"] is not None:
                extractor = self.platform.features.get(extractor_name)
                return extractor.extract(body["image"])
            if body.get("vector") is not None:
                return body["vector"]
            if body["image_id"] is not None:
                return self.platform.feature_vector(body["image_id"], extractor_name)
        except TVDPError as exc:
            raise APIError(404, str(exc)) from exc
        raise APIError(400, f"provide one of {sorted(set(body) - {'annotate'})}")

    def _features(self, request: Request) -> Response:
        vector = self._vector_of(request.body, request.path_params["extractor"])
        return Response(200, {"vector": vector.tolist(), "dimension": len(vector)})

    # -- APIs 5-7: models ----------------------------------------------------------------

    def _devise_model(self, request: Request) -> Response:
        body = request.body
        if body["extractor"] not in self.platform.features:
            raise APIError(404, f"unknown extractor {body['extractor']!r}")
        record = ModelRecord(
            name=body["name"],
            extractor_name=body["extractor"],
            classification=body["classification"],
            owner_id=request.user_id,
            classifier=CLASSIFIER_FACTORIES[body["classifier"]](),
            description=body["description"],
        )
        self.models.register(record)
        return Response(201, {"model": record.name})

    def _train_model(self, request: Request) -> Response:
        record = self.models.get(request.path_params["name"])
        body = request.body
        try:
            labels = self.platform.catalog.labels(record.classification)
        except QueryError as exc:
            raise APIError(409, str(exc)) from exc
        X_rows, y_rows = [], []
        for label in labels:
            hits = self.platform.annotations.images_with_label(
                record.classification, (label,), body["min_confidence"], body["source"]
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
        body = request.body
        image_id = body["image_id"]
        vector = self._vector_of(body, record.extractor_name)
        try:
            label, confidence = record.predict_one(vector)
        except TVDPError as exc:
            raise APIError(409, f"model not ready: {exc}") from exc
        annotated = body["annotate"] and image_id is not None
        if annotated:
            try:
                self.platform.annotations.annotate(
                    image_id, record.classification, label, confidence,
                    source="machine", annotator=record.name,
                )
            except TVDPError as exc:
                raise APIError(404, str(exc)) from exc
        return Response(
            200, {"label": label, "confidence": confidence, "annotated": annotated}
        )

    def _download_model(self, request: Request) -> Response:
        record = self.models.get(request.path_params["name"])
        payload = serialize_classifier(record.classifier)
        payload["extractor"] = record.extractor_name
        payload["classification"] = record.classification
        return Response(200, payload)

    # -- classifications & annotations --------------------------------------------------

    def _define_classification(self, request: Request) -> Response:
        body = request.body
        try:
            cid = self.platform.catalog.define(
                body["name"], list(body["labels"]), body["description"], request.user_id
            )
        except TVDPError as exc:
            raise APIError(400, str(exc)) from exc
        return Response(201, {"classification_id": cid})

    def _add_annotation(self, request: Request) -> Response:
        try:
            annotation_id = self.platform.annotations.annotate(
                request.path_params["image_id"], **request.body
            )
        except TVDPError as exc:
            raise APIError(400, str(exc)) from exc
        return Response(201, {"annotation_id": annotation_id})

    def _list_annotations(self, request: Request) -> Response:
        annotations = self.platform.annotations.annotations_of(
            request.path_params["image_id"]
        )
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
        with self._lock:
            try:
                campaign = Campaign(
                    self._next_campaign_id, str(request.user_id), **request.body
                )
            except TVDPError as exc:
                raise APIError(400, f"bad campaign spec: {exc}") from exc
            self._campaigns[campaign.campaign_id] = campaign
            self._next_campaign_id += 1
        return Response(201, {"campaign_id": campaign.campaign_id})

    def _get_campaign(self, request: Request) -> Campaign:
        campaign_id = request.path_params["campaign_id"]
        with self._lock:
            if campaign_id not in self._campaigns:
                raise APIError(404, f"no campaign {campaign_id}")
            return self._campaigns[campaign_id]

    def _campaign_tasks(self, request: Request) -> Response:
        """Tasks for the campaign region's *current* coverage gaps,
        measured over everything the platform has already indexed."""
        campaign = self._get_campaign(request)
        params = request.params
        fovs = [
            self.platform.fov(row["image_id"])
            for row in self.platform.db.table("image_fov").all_rows()
        ]
        in_region = [f for f in fovs if campaign.region.intersects(f.mbr())]
        try:
            report = measure_coverage(
                in_region,
                campaign.region,
                rows=params["rows"],
                cols=params["cols"],
                min_directions=campaign.min_directions,
            )
        except TVDPError as exc:
            raise APIError(409, f"campaign cannot be measured: {exc}") from exc
        tasks = campaign.regenerate_tasks(report, max_tasks=params["max_tasks"])
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
        body = request.body
        task = campaign.find_open(body["task_id"])
        if task is None:
            raise APIError(404, f"no open task {body['task_id']} in campaign")
        uploaded_at = body["uploaded_at"]
        receipt = self.platform.upload_image(
            image=body["image"],
            fov=body["fov"],
            captured_at=body["captured_at"],
            uploaded_at=body["captured_at"] if uploaded_at is None else uploaded_at,
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
        if request.params["format"] == "prometheus":
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
        params = request.params
        return Response(
            200,
            {
                "operations": obs.records().operations(),
                "slow": obs.records().slowest(params["op"], params["limit"]),
            },
        )

    def _debug_hot(self, request: Request) -> Response:
        """Hot-query report: the workload's normalized query shapes
        ranked by frequency then total time (see
        ``repro.core.queries.query_shape``)."""
        store = obs.records()
        tracked, evicted = store.tracked()
        return Response(
            200,
            {
                "hot": store.top(request.params["limit"] or 10),
                "tracked": tracked,
                "evicted": evicted,
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
        ``window_s`` is the window *of that budget*: alone it is a 400.
        """
        params = request.params
        budget, window_s = params["budget"], params["window_s"]
        override = None
        if budget is not None:
            try:
                override = obs.Budget(budget, 60.0 if window_s is None else window_s)
            except ValueError as exc:
                raise APIError(400, "budget must be >= 0 and window_s > 0") from exc
        elif window_s is not None:
            raise APIError(400, "window_s is the window of budget: send budget too")
        return Response(200, obs.usage().report(top=params["top"] or 10, budget=override))

    def _debug_trace(self, request: Request) -> Response:
        """The full span tree of one trace, reassembled from the ring
        buffer of finished spans; 404 once the trace has been evicted
        (the buffer keeps the most recent spans only)."""
        trace_id = request.path_params["trace_id"]
        spans = obs.records().spans(trace_id=trace_id)
        if not spans:
            raise APIError(
                404, f"trace {trace_id!r} not in the ring buffer (evicted or unknown)"
            )
        return Response(
            200,
            {"trace_id": trace_id, "spans": len(spans), "roots": obs.span_tree(spans)},
        )

    def _debug_request(self, request: Request) -> Response:
        """One request's record — the ``request_id`` of any response or
        error envelope resolved to what the request did: its spans,
        query shapes, bill and counter deltas; 404 once evicted."""
        request_id = request.path_params["request_id"]
        record = obs.records().request(request_id)
        if record is None:
            raise APIError(
                404,
                f"request {request_id!r} not in the ring buffer (evicted or unknown)",
            )
        return Response(200, record.to_dict())

    def _debug_explain(self, request: Request) -> Response:
        """EXPLAIN (ANALYZE) a query spec without returning its results.

        The body is the same query spec ``POST /search`` takes.  With
        ``?analyze=1`` (the default) the query is executed and every
        plan node carries actual rows, elapsed time, and probe-counter
        deltas; ``?analyze=0`` returns the bare access-path plan.
        """
        from repro.core.planner import explain

        analyze = request.params["analyze"]
        try:
            plan = explain(self.platform, request.body, analyze=analyze)
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
