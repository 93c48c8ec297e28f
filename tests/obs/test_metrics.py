"""Unit tests for the metrics primitives and registry."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_delta,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=10: {5.0}; <=100: {50.0}; overflow: {500.0}
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)
        assert h.min == 0.5 and h.max == 500.0

    def test_bisection_files_every_value_where_the_walk_filed_it(self):
        """``observe`` finds its bucket by bisection; the walk over the
        bounds it replaced is the oracle — on every bound, between
        bounds, below the first, above the last, infinite and NaN."""

        def walked(buckets: tuple, value: float) -> int:
            for i, bound in enumerate(buckets):
                if value <= bound:
                    return i
            return len(buckets)

        for buckets in (DEFAULT_LATENCY_BUCKETS_MS, (1.0,), (1.0, 1.0, 2.0)):
            values = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0]
            for low, high in zip((0.0, *buckets), buckets):
                values += [high, (low + high) / 2.0, math.nextafter(high, math.inf),
                           math.nextafter(high, -math.inf)]
            values.append(buckets[-1] * 2.0)
            for value in values:
                h = Histogram("h", buckets=buckets)
                h.observe(value)
                expected = [0] * (len(buckets) + 1)
                expected[walked(buckets, value)] = 1
                assert h.bucket_counts == expected, (buckets, value)
                assert h.count == 1

    def test_rejects_unsorted_or_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(0.0, 100.0))
        for v in range(1, 101):  # uniform 1..100, all in the (0, 100] bucket
            h.observe(float(v))
        # Interpolation across the bucket tracks the true quantile within
        # a bucket-width tolerance.
        assert h.percentile(0.5) == pytest.approx(50.0, abs=2.0)
        assert h.percentile(0.95) == pytest.approx(95.0, abs=2.0)
        assert h.percentile(0.0) >= h.min
        assert h.percentile(1.0) <= h.max

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("h", buckets=(100.0,))
        h.observe(40.0)
        h.observe(60.0)
        assert h.min <= h.percentile(0.5) <= h.max

    def test_overflow_bucket_percentile_is_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(50.0)
        h.observe(70.0)
        assert h.percentile(0.99) == 70.0

    def test_empty_summary(self):
        summary = Histogram("h").summary()
        assert summary == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(3.0)
        summary = h.summary()
        assert summary["count"] == 1
        assert summary["sum"] == 3.0
        assert summary["p50"] == summary["p99"] == 3.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    # -- pinned interpolation contract (see Histogram.percentile) -------

    def test_empty_histogram_percentile_is_zero(self):
        h = Histogram("h")
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.percentile(q) == 0.0

    def test_q0_and_q1_are_exact_observed_extremes(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (2.7, 41.3, 99.0):
            h.observe(v)
        assert h.percentile(0.0) == 2.7
        assert h.percentile(1.0) == 99.0

    def test_all_overflow_percentiles_are_max(self):
        # Every observation above the last bucket boundary: any quantile
        # lands in the overflow bucket and reports the observed maximum
        # (including q=0, which still reports the minimum exactly).
        h = Histogram("h", buckets=(1.0,))
        h.observe(500.0)
        h.observe(900.0)
        assert h.percentile(0.0) == 500.0
        for q in (0.25, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 900.0

    def test_single_observation_any_quantile(self):
        h = Histogram("h", buckets=(10.0, 100.0))
        h.observe(42.0)
        for q in (0.0, 0.5, 1.0):
            assert h.percentile(q) == 42.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", {"k": "v"}) is not reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a", {"x": "1", "y": "2"})
        c2 = reg.counter("a", {"y": "2", "x": "1"})
        assert c1 is c2

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        h = reg.histogram("h")
        c.inc(3)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0.0
        assert h.count == 0 and h.min == math.inf
        # Cached handle still feeds the registry after reset.
        c.inc()
        assert reg.snapshot()["counters"]["a"] == 1.0

    def test_snapshot_flattens_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"route": "/x", "method": "GET"}).inc()
        reg.gauge("depth").set(2)
        reg.histogram("lat", {"op": "q"}).observe(5.0)
        snap = reg.snapshot()
        assert snap["counters"]['hits{method="GET",route="/x"}'] == 1.0
        assert snap["gauges"]["depth"] == 2.0
        assert snap["histograms"]['lat{op="q"}']["count"] == 1

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("api.requests", {"route": "/x"}).inc(2)
        reg.gauge("queue.depth").set(3)
        reg.histogram("span.duration_ms", {"span": "q"}, buckets=(1.0, 10.0)).observe(
            0.5
        )
        text = reg.render_prometheus()
        assert '# TYPE tvdp_api_requests counter' in text
        assert 'tvdp_api_requests{route="/x"} 2' in text
        assert "tvdp_queue_depth 3" in text
        # Cumulative buckets + the +Inf bucket + sum/count triplet.
        assert 'tvdp_span_duration_ms_bucket{span="q",le="1"} 1' in text
        assert 'tvdp_span_duration_ms_bucket{span="q",le="+Inf"} 1' in text
        assert 'tvdp_span_duration_ms_count{span="q"} 1' in text
        assert text.endswith("\n")

    def test_render_prometheus_escapes_label_values(self):
        # Exposition format: backslash, double quote, and newline in a
        # label value must be escaped or the scrape output is corrupt.
        reg = MetricsRegistry()
        reg.counter(
            "api.errors", {"route": '/x"y\\z', "detail": "line1\nline2"}
        ).inc()
        text = reg.render_prometheus()
        assert "\nline2" not in text.replace("\\nline2", "")
        assert 'route="/x\\"y\\\\z"' in text
        assert 'detail="line1\\nline2"' in text
        # Every exposition line stays single-line and parseable.
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_histograms_filter(self):
        reg = MetricsRegistry()
        reg.histogram("a")
        reg.histogram("a", {"k": "v"})
        reg.histogram("b")
        assert len(reg.histograms("a")) == 2
        assert len(reg.histograms()) == 3

    def test_counter_values_is_counters_only(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"route": "/x"}).inc(2)
        reg.gauge("depth").set(5)
        reg.histogram("lat").observe(1.0)
        values = reg.counter_values()
        assert values == {'hits{route="/x"}': 2.0}

    def test_default_buckets_cover_training_scale(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] < 0.1
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] >= 5_000.0


class TestCountersDelta:
    def test_reports_only_increments(self):
        reg = MetricsRegistry()
        a = reg.counter("a")
        reg.counter("b")
        before = reg.snapshot()
        a.inc(3)
        reg.counter("c").inc()
        after = reg.snapshot()
        assert counters_delta(before, after) == {"a": 3.0, "c": 1.0}
