"""Unit tests for the declarative SLO layer (``repro.obs.slo``)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    FAILING_BURN,
    SLO,
    evaluate,
    evaluate_slo,
)


def latency_slo(**overrides):
    base = dict(
        objective="q.p95",
        kind="latency",
        span="query.spatial",
        target=100.0,
        percentile=0.95,
        min_samples=5,
    )
    base.update(overrides)
    return SLO(**base)


def availability_slo(**overrides):
    base = dict(
        objective="q.avail",
        kind="availability",
        span="query.spatial",
        target=0.99,
        min_samples=5,
    )
    base.update(overrides)
    return SLO(**base)


def observe_latencies(registry, span, values):
    histogram = registry.histogram("span.duration_ms", {"span": span})
    for value in values:
        histogram.observe(value)


def record_outcomes(registry, span, total, errors):
    registry.counter("spans.total", {"span": span}).inc(total)
    if errors:
        registry.counter("spans.errors", {"span": span}).inc(errors)


class TestSLOValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            latency_slo(kind="throughput")

    def test_rejects_nonpositive_latency_target(self):
        with pytest.raises(ValueError, match="positive"):
            latency_slo(target=0.0)

    def test_rejects_out_of_range_availability(self):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            availability_slo(target=1.0)


class TestLatencyObjective:
    def test_cold_registry_is_ok_with_insufficient_data(self):
        result = evaluate_slo(latency_slo(), MetricsRegistry())
        assert result["status"] == "ok"
        assert result["insufficient_data"] is True
        assert result["samples"] == 0

    def test_below_threshold_is_ok(self):
        registry = MetricsRegistry()
        observe_latencies(registry, "query.spatial", [10.0] * 50)
        result = evaluate_slo(latency_slo(), registry)
        assert result["status"] == "ok"
        assert result["burn_ratio"] <= 1.0
        assert result["insufficient_data"] is False

    def test_latency_spike_degrades_then_fails(self):
        registry = MetricsRegistry()
        # p95 around 150 ms: burn 1.5 -> degraded.
        observe_latencies(registry, "query.spatial", [150.0] * 50)
        degraded = evaluate_slo(latency_slo(), registry)
        assert degraded["status"] == "degraded"
        assert 1.0 < degraded["burn_ratio"] <= FAILING_BURN

        registry.reset()
        observe_latencies(registry, "query.spatial", [500.0] * 50)
        failing = evaluate_slo(latency_slo(), registry)
        assert failing["status"] == "failing"
        assert failing["burn_ratio"] > FAILING_BURN

    def test_min_samples_gates_judgement(self):
        registry = MetricsRegistry()
        observe_latencies(registry, "query.spatial", [900.0] * 3)  # < min_samples
        result = evaluate_slo(latency_slo(), registry)
        assert result["status"] == "ok"
        assert result["insufficient_data"] is True
        # The observed numbers are still surfaced for operators.
        assert result["observed"] is not None


class TestAvailabilityObjective:
    def test_no_errors_is_ok_with_zero_burn(self):
        registry = MetricsRegistry()
        record_outcomes(registry, "query.spatial", total=100, errors=0)
        result = evaluate_slo(availability_slo(), registry)
        assert result["status"] == "ok"
        assert result["burn_ratio"] == 0.0
        assert result["observed"] == 1.0

    def test_error_budget_burn(self):
        registry = MetricsRegistry()
        # 1.5% errors against a 1% budget: burn 1.5 -> degraded.
        record_outcomes(registry, "query.spatial", total=1000, errors=15)
        result = evaluate_slo(availability_slo(), registry)
        assert result["status"] == "degraded"
        assert result["burn_ratio"] == pytest.approx(1.5)

        registry.reset()
        record_outcomes(registry, "query.spatial", total=1000, errors=50)
        result = evaluate_slo(availability_slo(), registry)
        assert result["status"] == "failing"


class TestEvaluate:
    def test_cold_report_is_ok_for_all_defaults(self):
        report = evaluate(MetricsRegistry())
        assert report["status"] == "ok"
        assert len(report["objectives"]) == len(DEFAULT_SLOS)
        assert all(r["insufficient_data"] for r in report["objectives"])

    def test_rollup_is_worst_objective_and_sorted_worst_first(self):
        registry = MetricsRegistry()
        observe_latencies(registry, "query.spatial", [500.0] * 50)  # failing
        record_outcomes(registry, "query.visual", total=1000, errors=15)  # degraded
        report = evaluate(
            registry,
            slos=[
                availability_slo(objective="v.avail", span="query.visual"),
                latency_slo(objective="s.p95", span="query.spatial"),
            ],
        )
        assert report["status"] == "failing"
        statuses = [r["status"] for r in report["objectives"]]
        assert statuses == ["failing", "degraded"]

    def test_default_slos_cover_queries_uploads_and_api(self):
        objectives = {slo.objective for slo in DEFAULT_SLOS}
        assert "query.spatial.p95" in objectives
        assert "query.hybrid.availability" in objectives
        assert "upload.p95" in objectives
        assert "api.request.p99" in objectives
        # Each objective id is unique.
        assert len(objectives) == len(DEFAULT_SLOS)


class TestWindowedEvaluation:
    """Latency objectives judged on rolling windows when provided."""

    def _windows(self, clock_value):
        """A record store of its own (no registry: the cumulative side
        is fed by hand) whose ``observe`` folds one span."""
        from repro.obs.record import RecordStore
        from tests.obs.test_windows import FakeClock, observe as fold_one_span

        class _Windows(RecordStore):
            observe = fold_one_span

        clock = FakeClock(clock_value)
        return _Windows(clock=clock.now), clock

    def test_window_samples_override_cumulative_histogram(self):
        registry = MetricsRegistry()
        # Cumulative history says slow; the live window says fast.
        observe_latencies(registry, "query.spatial", [500.0] * 50)
        windows, _ = self._windows(0.0)
        for _ in range(30):
            windows.observe("query.spatial", 10.0)
        result = evaluate_slo(latency_slo(), registry, windows=windows)
        assert result["status"] == "ok"
        assert result["samples"] == 30
        assert result["window_s"] == 60.0
        assert result["observed"] < 100.0

    def test_drained_window_falls_back_to_cumulative(self):
        registry = MetricsRegistry()
        observe_latencies(registry, "query.spatial", [500.0] * 50)
        windows, clock = self._windows(0.0)
        windows.observe("query.spatial", 10.0)
        clock.t = 120.0  # the window sample ages out
        result = evaluate_slo(latency_slo(), registry, windows=windows)
        assert result["samples"] == 50
        assert "window_s" not in result
        assert result["status"] == "failing"

    def test_recovery_inside_window_clears_failing_status(self):
        registry = MetricsRegistry()
        windows, clock = self._windows(0.0)
        # A slow burst, then a fast minute: cumulative stays scarred,
        # the windowed evaluation forgives.
        for _ in range(30):
            registry.histogram("span.duration_ms", {"span": "query.spatial"}).observe(400.0)
            windows.observe("query.spatial", 400.0)
        cumulative = evaluate_slo(latency_slo(), registry)
        assert cumulative["status"] == "failing"
        clock.t = 90.0
        for _ in range(30):
            registry.histogram("span.duration_ms", {"span": "query.spatial"}).observe(8.0)
            windows.observe("query.spatial", 8.0)
        rolled = evaluate_slo(latency_slo(), registry, windows=windows)
        assert rolled["status"] == "ok"

    def test_availability_ignores_windows(self):
        registry = MetricsRegistry()
        record_outcomes(registry, "query.spatial", total=100, errors=50)
        windows, _ = self._windows(0.0)
        result = evaluate_slo(availability_slo(), registry, windows=windows)
        assert result["status"] == "failing"
        assert "window_s" not in result

    def test_evaluate_passes_windows_through(self):
        registry = MetricsRegistry()
        observe_latencies(registry, "query.spatial", [500.0] * 50)
        windows, _ = self._windows(0.0)
        for _ in range(30):
            windows.observe("query.spatial", 10.0)
        report = evaluate(registry, slos=[latency_slo()], windows=windows)
        assert report["status"] == "ok"
        assert report["objectives"][0]["window_s"] == 60.0
