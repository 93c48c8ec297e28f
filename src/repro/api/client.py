"""Cross-platform client library for the TVDP API.

"More programming experienced users can directly access APIs through
cross-platform client libraries" — this is that library.  It speaks to
a :class:`~repro.api.service.TVDPService` instance in-process, but its
surface is exactly what an HTTP client would expose — including the
failure handling a real network client needs: transient errors and
server-side (5xx) responses retry with seeded backoff behind a shared
circuit breaker, while client errors (4xx) surface immediately and are
never retried.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import APIError, FaultInjected, TVDPError
from repro.api.http import Request, Response
from repro.api.schema import image_to_payload
from repro.api.service import TVDPService
from repro.geo.fov import FieldOfView
from repro.imaging.image import Image
from repro.resilience import Clock, Retry, current_clock, get_breaker, inject

#: Fault-injection site for client request dispatch.
REQUEST_SITE = "api.request"

#: Errors a client request retries: injected chaos, link failures, and
#: 5xx responses (re-raised as :class:`APIError` inside the attempt; a
#: 4xx never reaches the retry loop).
_CLIENT_TRANSIENT = (APIError, FaultInjected, ConnectionError, TimeoutError)


def _error_message(response: Response) -> str:
    error = response.body.get("error", "API error")
    if isinstance(error, dict):  # structured envelope from the middleware
        message = error.get("message", "API error")
        request_id = error.get("request_id")
        if request_id:
            message = f"{message} (request {request_id})"
        return str(message)
    return str(error)


class TVDPClient:
    """Typed convenience wrapper over the service routes."""

    def __init__(
        self,
        service: TVDPService,
        api_key: str | None = None,
        clock: Clock | None = None,
        max_attempts: int = 3,
        seed: int = 0,
        breaker_name: str = "api.client",
    ) -> None:
        self._service = service
        self.api_key = api_key
        self._clock = clock
        self._max_attempts = max_attempts
        self._seed = seed
        self._breaker_name = breaker_name

    # -- transport --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        params: dict | None = None,
    ) -> Response:
        """Dispatch one request and raise :class:`APIError` on failure,
        returning the raw response (non-JSON routes need its
        ``text``/``content_type``).  A parameter left ``None`` is not sent.

        Server-side failures (5xx, dead links, injected faults) retry
        through the client's circuit breaker; 4xx responses raise
        without a retry — repeating a bad request cannot fix it.
        """
        clock = current_clock(self._clock)
        breaker = get_breaker(
            self._breaker_name, failure_on=(TVDPError,), clock=self._clock
        )

        sent = {k: v for k, v in (params or {}).items() if v is not None}

        def one_attempt() -> Response:
            inject(REQUEST_SITE, clock)
            # Each attempt is one client span; the outbound traceparent
            # header is what a real HTTP client would put on the wire,
            # so the server's http.request span joins this trace even
            # across a process boundary.
            with obs.span("client.request", method=method, path=path) as sp:
                response: Response = self._service.handle(
                    Request(
                        method=method,
                        path=path,
                        body=body,
                        params=sent,
                        api_key=self.api_key,
                        headers={"traceparent": obs.current_traceparent()},
                    )
                )
                sp.set("status", response.status)
            if response.status >= 500:
                raise APIError(response.status, _error_message(response))
            return response

        retry = Retry(
            max_attempts=self._max_attempts,
            base_delay_s=0.05,
            retry_on=_CLIENT_TRANSIENT,
            seed=self._seed,
            clock=clock,
            site=REQUEST_SITE,
        )
        response = retry.call(lambda: breaker.call(one_attempt))
        if not response.ok:
            raise APIError(response.status, _error_message(response))
        return response

    def _call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        params: dict | None = None,
    ) -> dict:
        return self._request(method, path, body, params).body

    # -- account -----------------------------------------------------------------

    def register_user(self, name: str, role: str, organization: str | None = None) -> int:
        """Create a user; does not require a key."""
        body = self._call(
            "POST", "/users", {"name": name, "role": role, "organization": organization}
        )
        return body["user_id"]

    def create_key(self, user_id: int, adopt: bool = True) -> str:
        """Issue an API key; ``adopt=True`` uses it for future calls."""
        key = self._call("POST", "/keys", {"user_id": user_id})["api_key"]
        if adopt:
            self.api_key = key
        return key

    # -- data ---------------------------------------------------------------------

    def add_image(
        self,
        image: Image,
        fov: FieldOfView,
        captured_at: float,
        uploaded_at: float,
        keywords: tuple[str, ...] = (),
    ) -> dict:
        """API 1: upload one geo-tagged image."""
        return self._call(
            "POST",
            "/images",
            {
                "image": image_to_payload(image),
                "fov": fov.to_dict(),
                "captured_at": captured_at,
                "uploaded_at": uploaded_at,
                "keywords": list(keywords),
            },
        )

    def get_image(self, image_id: int, include_pixels: bool = False) -> dict:
        """API 3: download an image's metadata (and optionally pixels)."""
        return self._call(
            "GET",
            f"/images/{image_id}",
            params={"include_pixels": include_pixels} if include_pixels else {},
        )

    def search(self, query_spec: dict) -> list[dict]:
        """API 2: run any query; see the service docs for the spec."""
        return self._call("POST", "/search", query_spec)["results"]

    def get_features(self, extractor: str, image: Image | None = None, image_id: int | None = None) -> np.ndarray:
        """API 4: feature vector for an uploaded image or raw pixels."""
        body: dict = {}
        if image is not None:
            body["image"] = image_to_payload(image)
        if image_id is not None:
            body["image_id"] = image_id
        result = self._call("POST", f"/features/{extractor}", body)
        return np.array(result["vector"], dtype=np.float64)

    # -- models --------------------------------------------------------------------

    def devise_model(
        self,
        name: str,
        extractor: str,
        classification: str,
        classifier: str = "svm",
        description: str = "",
    ) -> str:
        """API 7: declare a new shared model."""
        return self._call(
            "POST",
            "/models",
            {
                "name": name,
                "extractor": extractor,
                "classification": classification,
                "classifier": classifier,
                "description": description,
            },
        )["model"]

    def train_model(self, name: str, source: str = "human", min_confidence: float = 0.0) -> int:
        """Train a devised model on the platform's annotations."""
        body = self._call(
            "POST",
            f"/models/{name}/train",
            {"source": source, "min_confidence": min_confidence},
        )
        return body["trained_on"]

    def predict(
        self,
        name: str,
        image: Image | None = None,
        image_id: int | None = None,
        vector: np.ndarray | None = None,
        annotate: bool = False,
    ) -> dict:
        """API 5: run a hosted model."""
        body: dict = {"annotate": annotate}
        if image is not None:
            body["image"] = image_to_payload(image)
        if image_id is not None:
            body["image_id"] = image_id
        if vector is not None:
            body["vector"] = np.asarray(vector, dtype=np.float64).tolist()
        return self._call("POST", f"/models/{name}/predict", body)

    def download_model(self, name: str) -> dict:
        """API 6: fetch a portable serialisation for edge execution."""
        return self._call("GET", f"/models/{name}/download")

    # -- annotations ------------------------------------------------------------------

    def define_classification(
        self, name: str, labels: list[str], description: str = ""
    ) -> int:
        """Create a shared label vocabulary."""
        body = self._call(
            "POST",
            "/classifications",
            {"name": name, "labels": labels, "description": description},
        )
        return body["classification_id"]

    def annotate(
        self,
        image_id: int,
        classification: str,
        label: str,
        confidence: float = 1.0,
        source: str = "human",
        annotator: str | None = None,
    ) -> int:
        """Attach a label to a stored image."""
        body = self._call(
            "POST",
            f"/images/{image_id}/annotations",
            {
                "classification": classification,
                "label": label,
                "confidence": confidence,
                "source": source,
                "annotator": annotator,
            },
        )
        return body["annotation_id"]

    def annotations_of(self, image_id: int) -> list[dict]:
        """Shared knowledge attached to one image."""
        return self._call("GET", f"/images/{image_id}/annotations")["annotations"]

    # -- crowdsourcing -----------------------------------------------------------------

    def create_campaign(self, region: dict, **settings) -> int:
        """Open a spatial-crowdsourcing campaign over a region dict
        (``min_lat``/``min_lng``/``max_lat``/``max_lng``)."""
        return self._call("POST", "/campaigns", {"region": region, **settings})[
            "campaign_id"
        ]

    def campaign_tasks(self, campaign_id: int, max_tasks: int | None = None) -> dict:
        """Coverage report + open tasks for a campaign's gaps."""
        params = {"max_tasks": max_tasks} if max_tasks else {}
        return self._call("GET", f"/campaigns/{campaign_id}/tasks", params=params)

    def submit_capture(
        self,
        campaign_id: int,
        task_id: int,
        image: Image,
        fov: FieldOfView,
        captured_at: float,
    ) -> dict:
        """Fulfil one campaign task with a capture."""
        return self._call(
            "POST",
            f"/campaigns/{campaign_id}/captures",
            {
                "task_id": task_id,
                "image": image_to_payload(image),
                "fov": fov.to_dict(),
                "captured_at": captured_at,
            },
        )

    def stats(self) -> dict:
        """Platform statistics."""
        return self._call("GET", "/stats")

    def metrics(self, prometheus: bool = False) -> dict | str:
        """Observability: the platform's metrics registry snapshot, or
        the Prometheus text exposition when ``prometheus=True`` (served
        as ``text/plain; version=0.0.4``, not a JSON envelope)."""
        if prometheus:
            response = self._request(
                "GET", "/metrics", params={"format": "prometheus"}
            )
            return response.text or ""
        return self._call("GET", "/metrics")["metrics"]

    def health(self) -> dict:
        """SLO health report: ``{"status", "objectives"}`` with
        per-objective burn ratios (see ``repro.obs.slo``)."""
        return self._call("GET", "/health")

    def slow_spans(self, op: str | None = None, limit: int | None = None) -> dict:
        """Slow-span exemplars from ``GET /debug/slow`` (worst spans per
        operation with ancestry and probe-counter deltas)."""
        return self._call("GET", "/debug/slow", params={"op": op, "limit": limit})

    def hot_queries(self, limit: int | None = None) -> dict:
        """Hot-query report from ``GET /debug/hot``: normalized query
        shapes ranked by frequency then total time."""
        return self._call("GET", "/debug/hot", params={"limit": limit})

    def resources(
        self,
        top: int | None = None,
        budget: float | None = None,
        window_s: float | None = None,
    ) -> dict:
        """Resource-usage report from ``GET /debug/resources``: top
        consumers by principal/shape/operation, rolling spend, and
        would-shed dry-run flags.  ``budget``/``window_s`` evaluate a
        what-if admission budget without configuring one."""
        params = {"top": top, "budget": budget, "window_s": window_s}
        return self._call("GET", "/debug/resources", params=params)

    def trace(self, trace_id: str) -> dict:
        """Reassembled span tree for one trace from ``GET
        /debug/trace/{trace_id}`` (404 once evicted from the ring
        buffer)."""
        return self._call("GET", f"/debug/trace/{trace_id}")

    def explain(self, query_spec: dict, analyze: bool = True) -> dict:
        """EXPLAIN (ANALYZE) a search query spec via ``GET
        /debug/explain``: ``{"plan": <nested dict>, "rendered": <str>}``
        with per-node rows/timing/probe deltas when ``analyze``."""
        return self._call(
            "GET",
            "/debug/explain",
            body=query_spec,
            params={"analyze": "1" if analyze else "0"},
        )
