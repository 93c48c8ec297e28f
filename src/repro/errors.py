"""Exception hierarchy for the TVDP reproduction.

Every error raised by the library derives from :class:`TVDPError` so
applications can catch platform failures with a single ``except`` clause
while still distinguishing subsystems when they need to.
"""

from __future__ import annotations


class TVDPError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeoError(TVDPError):
    """Invalid geographic input (latitude/longitude out of range, etc.)."""


class ImagingError(TVDPError):
    """Invalid image data or unsupported imaging operation."""


class FeatureError(TVDPError):
    """Feature-extraction failure (unfitted vocabulary, shape mismatch)."""


class MLError(TVDPError):
    """Machine-learning failure (unfitted model, bad training input)."""


class NotFittedError(MLError):
    """An estimator was used before ``fit`` was called."""


class SchemaError(TVDPError):
    """Database schema violation (unknown column, bad type, missing PK)."""


class IntegrityError(SchemaError):
    """Constraint violation: duplicate primary key or dangling foreign key."""


class QueryError(TVDPError):
    """Malformed or unsupported query."""


class MalformedQueryError(QueryError):
    """A query no catalog could answer, found only at execution: a
    parameter whose validity depends on what it must match (a query
    vector against its extractor's dimension).  The API answers 400,
    where a :class:`QueryError` about the catalog's state is a 409."""


class IndexError_(TVDPError):
    """Index-structure failure (dimension mismatch, empty index, etc.)."""


class CrowdError(TVDPError):
    """Spatial-crowdsourcing failure (bad campaign, no such worker)."""


class EdgeError(TVDPError):
    """Edge-computing failure (unknown device, undispatchable model)."""


class ShardError(TVDPError):
    """Scale-out execution failure (shard worker died, bad shard task)."""


class ResilienceError(TVDPError):
    """Resilience-policy failure (retry budget spent, breaker open...)."""


class RetryBudgetExceeded(ResilienceError):
    """A retry policy ran out of attempts or backoff budget.

    ``last_error`` carries the exception the final attempt raised, so
    callers can still see *why* the operation kept failing.
    """

    def __init__(self, message: str, last_error: BaseException | None = None) -> None:
        super().__init__(message)
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """A circuit breaker rejected the call without running it."""

    def __init__(self, breaker: str, retry_after_s: float) -> None:
        super().__init__(
            f"circuit {breaker!r} is open; retry in {retry_after_s:.3f}s"
        )
        self.breaker = breaker
        self.retry_after_s = retry_after_s


class CallTimeoutError(ResilienceError):
    """A call exceeded its timeout policy's limit."""

    def __init__(self, limit_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"call exceeded its {limit_s:.3f}s timeout (took {elapsed_s:.3f}s)"
        )
        self.limit_s = limit_s
        self.elapsed_s = elapsed_s


class FaultInjected(ResilienceError):
    """An error scripted by an active :class:`~repro.resilience.FaultPlan`.

    Raised only under fault injection (tests, ``python -m repro
    --chaos``) — production code paths never construct it themselves.
    """

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected fault at {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


class APIError(TVDPError):
    """API-layer failure; carries an HTTP-like status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class AuthenticationError(APIError):
    """Missing or invalid API key."""

    def __init__(self, message: str = "invalid or missing API key") -> None:
        super().__init__(401, message)
