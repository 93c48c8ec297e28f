"""Minimal in-process HTTP abstraction.

The real TVDP exposes RESTful web services; this environment has no
network, so requests and responses are plain objects dispatched through
a router with the same shape (methods, path templates with ``{param}``
segments, query params, JSON bodies, status codes).  Everything above
this module — service handlers, the client library — would port to a
real WSGI stack unchanged.

The router doubles as the platform's per-request middleware: every
dispatch gets a request id, runs inside an ``http.request`` span under
a ledger billed to the caller, and notes the route and status on the
request's record — which is what ``api.requests{method,route,status}``
and ``api.request_ms{method,route}`` are folded from; handler failures
additionally bump ``api.errors{route,exception}`` and come back as
structured error bodies (see :func:`error_body`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.api.auth import ANONYMOUS, principal_label
from repro.errors import APIError

if TYPE_CHECKING:
    from repro.api.schema import Declaration

_log = obs.get_logger("api.http")

_request_ids = itertools.count(1)  # ``next`` is one C call: no lock, as for span ids


def new_request_id() -> str:
    """Process-unique request id attached to every dispatched request."""
    return f"req-{next(_request_ids):06d}"


def error_body(
    message: str,
    exc_type: str,
    status: int,
    request_id: str | None,
    trace_id: str | None = None,
) -> dict:
    """The structured error envelope every failing route returns.

    ``trace_id`` links the error to its span tree so a failing call can
    be followed straight to ``GET /debug/trace/<trace_id>``.
    """
    return {
        "error": {
            "message": message,
            "type": exc_type,
            "status": status,
            "request_id": request_id,
            "trace_id": trace_id,
        }
    }


@dataclass
class Request:
    """One API call."""

    method: str
    path: str
    # The router replaces these two (and ``path_params``) with their
    # typed values on a route that declares its request.
    params: dict = field(default_factory=dict)  # query parameters
    body: dict | None = None  # JSON payload
    api_key: str | None = None
    headers: dict = field(default_factory=dict)  # e.g. traceparent
    path_params: dict = field(default_factory=dict)  # filled by the router
    user_id: int | None = None  # filled by the auth layer
    request_id: str | None = None  # filled by the middleware


@dataclass(frozen=True)
class Response:
    """One API reply: status code plus JSON-compatible body.

    Routes that speak a non-JSON wire format (the Prometheus text
    exposition) set ``text`` and a matching ``content_type``; ``body``
    stays an empty dict for those responses.
    """

    status: int
    body: dict
    content_type: str = "application/json"
    text: str | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[Request], Response]

#: The route label of a path no template fits.
UNMATCHED = "<unmatched>"


def count_error(route: str, exc: Exception) -> None:
    """Count one refused or failed request on ``api.errors``, labelled
    by its route template (or :data:`UNMATCHED`), never its raw path: a
    hostile client must not mint one metric series per distinct path."""
    obs.metrics().counter(
        "api.errors", {"route": route, "exception": type(exc).__name__}
    ).inc()


def _segments(path: str) -> list[str]:
    """The non-empty ``/``-separated parts of a path or template."""
    return [part for part in path.split("/") if part]


def _shape(segments: list[str], blanks: tuple[int, ...]) -> tuple:
    """``segments`` with those at ``blanks`` blanked: what a template's
    literal segments and a path fitting it have in common."""
    if not blanks:
        return tuple(segments)
    return tuple(None if i in blanks else s for i, s in enumerate(segments))


def _match(template: list[str], path: list[str]) -> dict | None:
    """Match the segments of a ``/a/{x}/b`` template against a path's;
    returns path params or ``None``."""
    if len(template) != len(path):
        return None
    params: dict = {}
    for t, p in zip(template, path):
        if t.startswith("{") and t.endswith("}"):
            params[t[1:-1]] = p
        elif t != p:
            return None
    return params


class Router:
    """Method+path-template dispatch with error mapping and metrics.

    A route registered with a declaration has its request checked
    against it first: the handler runs only on a well-formed request,
    and reads typed ``path_params`` / ``params`` / ``body`` off it.
    Handler exceptions deriving from :class:`APIError` become their
    status code; anything else becomes a 500 (surfacing the message —
    acceptable for an in-process reproduction, not for production).

    Routes resolve by lookup: a template without parameters by one
    dict read of its path; else each is filed under its template's
    *shape* (its segments, every ``{param}`` blanked), a path reads the
    bucket of each shape it could have (one or two per segment count),
    and :func:`_match` runs only in there — to the same end as a scan
    of the table in registration order (``tests/api/test_route_index.py``).
    """

    def __init__(self) -> None:
        # (method, template, its segments, handler, declaration)
        self._routes: list[
            tuple[str, str, list[str], Handler, Declaration | None]
        ] = []
        #: shape -> positions in ``_routes``, ascending.
        self._by_shape: dict[tuple, list[int]] = {}
        #: segment count -> the sets of parameter positions in use.
        self._blanks: dict[int, list[tuple[int, ...]]] = {}
        #: (method, path) -> (template, handler, declaration) of each
        #: template without parameters that wins its path, spelt plainly.
        self._static: dict[tuple[str, str], tuple] = {}

    def add(
        self, method: str, template: str, handler: Handler,
        declaration: Declaration | None = None,
    ) -> None:
        """Register a handler for ``method template``."""
        segments = _segments(template)
        blanks = tuple(
            i for i, s in enumerate(segments) if s.startswith("{") and s.endswith("}")
        )
        known = self._blanks.setdefault(len(segments), [])
        if blanks not in known:
            known.append(blanks)
        self._by_shape.setdefault(_shape(segments, blanks), []).append(len(self._routes))
        self._routes.append((method.upper(), template, segments, handler, declaration))
        if not blanks:  # a later route never wins over this one: file it now
            key = (method.upper(), "/" + "/".join(segments))
            *found, params = self._fit(*key)
            if not params:
                self._static.setdefault(key, tuple(found))

    def routes(self) -> list[str]:
        """``"METHOD /template"`` strings for every registered route."""
        return sorted(f"{route[0]} {route[1]}" for route in self._routes)

    def declarations(self) -> dict[str, Declaration | None]:
        """Each registered route's declaration, by ``"METHOD /template"``."""
        return {f"{route[0]} {route[1]}": route[4] for route in self._routes}

    def resolve(self, method: str, path: str) -> tuple:
        """``(template, handler, declaration, path params)`` of the first
        registered route that fits ``method path``; the last three are
        ``None`` when none does, and the label is then the first
        template the path fits (a 405) or ``UNMATCHED`` (a 404)."""
        static = self._static.get((method, path))
        if static is not None:  # a dict of its own: ``_invoke`` hands it on
            return (*static, {})
        return self._fit(method, path)

    def _fit(self, method: str, path: str) -> tuple:
        """:meth:`resolve` by the shapes ``path`` could have."""
        segments = _segments(path)
        fitting: list[int] = []
        for blanks in self._blanks.get(len(segments), ()):
            fitting += self._by_shape.get(_shape(segments, blanks), ())
        if len(fitting) > 1:
            fitting.sort()  # two shapes fit: back to registration order
        path_template = UNMATCHED
        for position in fitting:
            route_method, template, fits, handler, declaration = self._routes[position]
            params = _match(fits, segments)
            if params is None:
                continue
            if route_method == method:
                return template, handler, declaration, params
            if path_template is UNMATCHED:
                path_template = template
        return path_template, None, None, None

    def dispatch(
        self, request: Request, authenticate: Callable[[object], int] | None = None
    ) -> Response:
        """Invoke the handler ``request`` resolves to (with the
        middleware).  Unless the route is declared open, ``authenticate``
        (an API key -> its user id, or an :class:`APIError`) is asked
        first; a refusal is answered in the request's unit like any
        error, billed to ``anonymous``: a bad key names nobody."""
        if request.request_id is None:
            request.request_id = new_request_id()
        method = request.method.upper()
        resolved = self.resolve(method, request.path)
        principal, refused = principal_label(request.api_key), None
        declaration = resolved[2]
        if authenticate is not None and (declaration is None or not declaration.open):
            try:
                request.user_id = authenticate(request.api_key)
            except APIError as exc:
                principal, refused = ANONYMOUS, exc
        # An inbound ``traceparent`` header joins this request to the
        # caller's trace; the ledger bills the whole dispatch (handler,
        # platform work, index probes) to the presented API key.
        remote_parent = obs.parse_traceparent(request.headers.get("traceparent"))
        with obs.ledger_scope(table=obs.usage(), principal=principal):
            with obs.span(
                "http.request",
                remote_parent=remote_parent,
                method=method,
                path=request.path,
                request_id=request.request_id,
                route=resolved[0],
            ) as sp:
                response = self._invoke(request, method, resolved, sp, refused)
                sp.set("status", response.status)
                if response.status >= 500:
                    # The handler's exception became this response in
                    # here, so the span has to be told: a 5xx burns the
                    # availability SLO, a 4xx is the caller's.
                    error = response.body["error"]
                    sp.status = "error"
                    sp.error = f"{error['type']}: {error['message']}"
            # The route label is only known after matching; note it
            # before the scope closes so the bill lands on the route.
            obs.note_request(
                request.request_id, method, resolved[0], response.status, sp
            )
        return response

    def _invoke(
        self, request: Request, method: str, resolved: tuple, sp: obs.Span,
        refused: APIError | None,
    ) -> Response:
        """Check the request against its declaration and run the handler; a
        refused key, no route, the wrong method and every exception become envelopes."""
        template, handler, declaration, params = resolved
        if refused is not None:
            count_error(template, refused)
            status, kind, message = refused.status, type(refused).__name__, refused.message
        elif handler is None:
            if template is UNMATCHED:
                status, kind = 404, "NotFound"
                message = f"no route for {request.path}"
            else:
                # Labelled by template, never the raw path: a hostile
                # client must not mint one metric series per distinct path.
                status, kind = 405, "MethodNotAllowed"
                message = f"method {method} not allowed"
        else:
            request.path_params = params
            try:
                if declaration is not None:
                    request.path_params, request.params, request.body = (
                        declaration.check(params, request.params, request.body)
                    )
                return handler(request)
            except APIError as exc:
                count_error(template, exc)
                status, kind, message = exc.status, type(exc).__name__, exc.message
            except Exception as exc:  # noqa: BLE001 - boundary translation
                count_error(template, exc)
                _log.exception(
                    "unhandled error on %s %s (%s)", method, template, request.request_id
                )
                status, kind, message = 500, type(exc).__name__, str(exc)
        return Response(
            status=status,
            body=error_body(
                message, kind, status, request.request_id, trace_id=sp.trace_id
            ),
        )

