"""Declarative SLOs evaluated against the live metrics registry.

An :class:`SLO` binds one instrumented operation (a span name) to a
target: either a latency percentile bound (``kind="latency"``: "p95 of
``query.spatial`` stays under 250 ms") or a success-ratio floor
(``kind="availability"``: "99% of ``platform.upload_image`` spans
finish without error").  Both read the metrics the tracer already
records — ``span.duration_ms{span=...}`` histograms and
``spans.total``/``spans.errors{span=...}`` counters — so adding an
objective needs no new instrumentation.

Evaluation reports a **burn ratio** per objective: how much of the
target the operation is consuming.

* latency: ``observed_percentile / threshold_ms``
* availability: ``(1 - observed_ratio) / (1 - target_ratio)`` — the
  classic error-budget burn.

``burn <= 1`` is ``ok``; up to :data:`FAILING_BURN` is ``degraded``;
beyond it, ``failing``.  Objectives with fewer than ``min_samples``
observations report ``ok`` with ``insufficient_data`` set, so a cold
process is healthy by definition.  ``GET /health`` serves the evaluated
report; ``python -m repro --stats`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

#: Burn ratio above which an objective is ``failing`` (between 1.0 and
#: this, it is ``degraded``).
FAILING_BURN = 2.0

#: Status ordering for the rollup: the report's overall status is the
#: worst individual objective's.
_STATUS_RANK = {"ok": 0, "degraded": 1, "failing": 2}

VALID_KINDS = ("latency", "availability")


@dataclass(frozen=True)
class SLO:
    """One declarative objective over an instrumented span name."""

    objective: str  # unique id, e.g. "query.spatial.p95"
    kind: str  # "latency" | "availability"
    span: str  # span name watched (span.duration_ms / spans.* labels)
    target: float  # threshold_ms (latency) or success ratio (availability)
    percentile: float = 0.95  # latency only
    min_samples: int = 20
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; use one of {VALID_KINDS}")
        if self.kind == "latency" and self.target <= 0:
            raise ValueError(f"latency target must be positive, got {self.target}")
        if self.kind == "availability" and not (0.0 < self.target < 1.0):
            raise ValueError(
                f"availability target must be in (0, 1), got {self.target}"
            )


def _query_family_slos() -> list[SLO]:
    """Latency + availability objectives for every query family."""
    targets_ms = {
        "spatial": 100.0,
        "visual": 250.0,
        "categorical": 100.0,
        "textual": 100.0,
        "temporal": 100.0,
        "hybrid": 500.0,
    }
    slos: list[SLO] = []
    for family, threshold in targets_ms.items():
        span = f"query.{family}"
        slos.append(
            SLO(
                objective=f"{span}.p95",
                kind="latency",
                span=span,
                target=threshold,
                percentile=0.95,
                description=f"p95 of {family} queries under {threshold:g} ms",
            )
        )
        slos.append(
            SLO(
                objective=f"{span}.availability",
                kind="availability",
                span=span,
                target=0.99,
                description=f"99% of {family} queries succeed",
            )
        )
    return slos


#: The shipped objectives: per-query-family latency/availability, the
#: upload pipeline, the API request envelope, and the resilience
#: surfaces (edge transfer attempts, database persistence).
DEFAULT_SLOS: tuple[SLO, ...] = (
    *_query_family_slos(),
    SLO(
        objective="upload.p95",
        kind="latency",
        span="platform.upload_image",
        target=250.0,
        percentile=0.95,
        description="p95 of image uploads under 250 ms",
    ),
    SLO(
        objective="upload.availability",
        kind="availability",
        span="platform.upload_image",
        target=0.99,
        description="99% of uploads succeed",
    ),
    SLO(
        objective="api.request.p99",
        kind="latency",
        span="http.request",
        target=1_000.0,
        percentile=0.99,
        description="p99 of API requests under 1 s",
    ),
    SLO(
        objective="api.request.availability",
        kind="availability",
        span="http.request",
        target=0.995,
        description="99.5% of API requests dispatch without raising",
    ),
    SLO(
        objective="edge.transfer.availability",
        kind="availability",
        span="edge.transfer.attempt",
        target=0.9,
        description=(
            "90% of individual edge transfer attempts succeed "
            "(retries and per-device breakers absorb the rest)"
        ),
    ),
    SLO(
        objective="db.persist.availability",
        kind="availability",
        span="db.persist",
        target=0.99,
        description="99% of database saves/loads complete after retries",
    ),
)


def _status_of(burn: float) -> str:
    if burn <= 1.0:
        return "ok"
    if burn <= FAILING_BURN:
        return "degraded"
    return "failing"


def evaluate_slo(slo: SLO, registry: MetricsRegistry, windows=None) -> dict:
    """One objective against the registry's current values.

    With ``windows`` (a :class:`repro.obs.record.RecordStore`),
    latency objectives are judged on the rolling window — "p95 over the
    last 60 s" — whenever the window holds samples for the span, and
    the result carries ``window_s``.  A cold or drained window falls
    back to the cumulative histogram, so a process that just stopped
    receiving traffic does not flap.  Availability objectives always
    read the cumulative error-budget counters.
    """
    labels = {"span": slo.span}
    result: dict = {
        "objective": slo.objective,
        "kind": slo.kind,
        "span": slo.span,
        "target": slo.target,
        "description": slo.description,
        "status": "ok",
        "burn_ratio": 0.0,
        "observed": None,
        "samples": 0,
        "insufficient_data": False,
    }
    if slo.kind == "latency":
        histogram = registry.histogram("span.duration_ms", labels)
        samples = histogram.count
        result["percentile"] = slo.percentile
        observed: float | None = None
        if windows is not None:
            window = windows.window(slo.span).get(slo.span)
            if window is not None:
                samples = window.count
                observed = window.percentile(slo.percentile)
                result["window_s"] = windows.WINDOW_S
        result["samples"] = samples
        if samples == 0:
            result["insufficient_data"] = True
            return result
        if observed is None:
            observed = histogram.percentile(slo.percentile)
        result["observed"] = round(observed, 3)
        result["burn_ratio"] = round(observed / slo.target, 4)
    else:  # availability
        total = registry.counter("spans.total", labels).value
        errors = registry.counter("spans.errors", labels).value
        result["samples"] = int(total)
        if total == 0:
            result["insufficient_data"] = True
            return result
        observed = 1.0 - errors / total
        result["observed"] = round(observed, 6)
        result["burn_ratio"] = round((1.0 - observed) / (1.0 - slo.target), 4)
    if result["samples"] < slo.min_samples:
        # Too little traffic to judge: surface the numbers, stay ok.
        result["insufficient_data"] = True
        return result
    result["status"] = _status_of(result["burn_ratio"])
    return result


def evaluate(
    registry: MetricsRegistry,
    slos: tuple[SLO, ...] | list[SLO] | None = None,
    windows=None,
) -> dict:
    """Full health report: per-objective results plus the worst rollup.

    The shape is exactly what ``GET /health`` returns::

        {"status": "ok" | "degraded" | "failing",
         "objectives": [ ...evaluate_slo dicts, worst first... ]}

    ``windows`` switches latency objectives to rolling last-window
    percentiles (see :func:`evaluate_slo`).
    """
    chosen = tuple(slos) if slos is not None else DEFAULT_SLOS
    results = [evaluate_slo(slo, registry, windows=windows) for slo in chosen]
    results.sort(key=lambda r: (-_STATUS_RANK[r["status"]], -r["burn_ratio"]))
    overall = "ok"
    for result in results:
        if _STATUS_RANK[result["status"]] > _STATUS_RANK[overall]:
            overall = result["status"]
    return {"status": overall, "objectives": results}
