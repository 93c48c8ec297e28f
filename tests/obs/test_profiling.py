"""Unit tests for span-attached profiling and the slow-span log."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    DEFAULT_SLOW_SPANS_PER_OP,
    SlowSpanLog,
    memory_scope,
    profile_scope,
)
from repro.obs.tracing import Span, Tracer


def make_span(name, span_id, duration_ms, ancestry=()):
    span = Span(
        name=name,
        trace_id="t1",
        span_id=span_id,
        parent_id=None,
        ancestry=tuple(ancestry),
    )
    span.duration_ms = duration_ms
    return span


class TestProfileScope:
    def test_collects_top_functions(self):
        def busy():
            return sum(i * i for i in range(20_000))

        with profile_scope(top=5) as profile:
            busy()
        assert profile.enabled
        assert 0 < len(profile.top) <= 5
        row = profile.top[0]
        assert set(row) == {"func", "ncalls", "tottime_ms", "cumtime_ms"}

    def test_attaches_results_to_active_span(self):
        tracer = Tracer()
        with tracer.span("work.profiled") as span:
            with profile_scope(top=3):
                sum(range(10_000))
        assert "profile.top" in span.attrs
        assert span.attrs["profile.sort"] == "cumulative"

    def test_nested_scope_degrades_to_noop(self):
        with profile_scope() as outer:
            with profile_scope() as inner:
                sum(range(1_000))
        assert outer.enabled
        assert inner.enabled is False
        assert inner.top == []


class TestMemoryScope:
    def test_measures_peak_of_a_large_allocation(self):
        with memory_scope() as mem:
            buffer = np.zeros(256 * 1024, dtype=np.uint8)  # 256 KiB
            del buffer
        assert mem.peak_kb >= 256.0
        # The buffer was freed, so little of the peak remains live.
        assert mem.net_kb < mem.peak_kb

    def test_attaches_results_to_active_span(self):
        tracer = Tracer()
        with tracer.span("work.measured") as span:
            with memory_scope():
                list(range(1_000))
        assert span.attrs["mem.peak_kb"] >= 0.0
        assert "mem.net_kb" in span.attrs

    def test_composes_with_outer_scope(self):
        with memory_scope() as outer:
            with memory_scope() as inner:
                data = np.zeros(64 * 1024, dtype=np.uint8)
                del data
        assert inner.peak_kb >= 64.0
        assert outer.peak_kb >= inner.peak_kb


class TestSlowSpanLog:
    def test_rejects_nonpositive_per_op(self):
        with pytest.raises(ValueError, match="per_op"):
            SlowSpanLog(per_op=0)

    def test_keeps_worst_n_per_operation(self):
        log = SlowSpanLog(per_op=2)
        for i, duration in enumerate([10.0, 50.0, 30.0, 5.0]):
            log.export(make_span("op.a", f"s{i}", duration))
        records = log.slowest("op.a")
        assert [r["duration_ms"] for r in records] == [50.0, 30.0]

    def test_slowest_merges_operations_and_limits(self):
        log = SlowSpanLog()
        log.export(make_span("op.a", "s1", 10.0))
        log.export(make_span("op.b", "s2", 90.0))
        log.export(make_span("op.b", "s3", 40.0))
        merged = log.slowest()
        assert [r["name"] for r in merged] == ["op.b", "op.b", "op.a"]
        assert len(log.slowest(limit=1)) == 1
        assert log.operations() == ["op.a", "op.b"]

    def test_records_carry_ancestry(self):
        log = SlowSpanLog()
        log.export(make_span("index.query", "s1", 5.0, ancestry=("http.request", "query.spatial")))
        record = log.slowest("index.query")[0]
        assert record["ancestry"] == ["http.request", "query.spatial"]

    def test_counter_deltas_exclude_tracer_bookkeeping(self):
        registry = MetricsRegistry()
        log = SlowSpanLog(registry=registry)
        tracer = Tracer(registry=registry, exporters=[log])
        with tracer.span("query.spatial"):
            registry.counter("index.rtree.node_visits").inc(7)
        record = log.slowest("query.spatial")[0]
        assert record["counter_deltas"] == {"index.rtree.node_visits": 7.0}

    def test_deltas_count_only_work_inside_the_span(self):
        registry = MetricsRegistry()
        log = SlowSpanLog(registry=registry)
        tracer = Tracer(registry=registry, exporters=[log])
        registry.counter("index.probes").inc(100)  # before the span opens
        with tracer.span("query.visual"):
            registry.counter("index.probes").inc(3)
        record = log.slowest("query.visual")[0]
        assert record["counter_deltas"] == {"index.probes": 3.0}

    def test_clear_drops_everything(self):
        log = SlowSpanLog()
        log.export(make_span("op.a", "s1", 1.0))
        log.clear()
        assert log.slowest() == []
        assert log.operations() == []

    def test_default_capacity(self):
        log = SlowSpanLog()
        for i in range(DEFAULT_SLOW_SPANS_PER_OP + 5):
            log.export(make_span("op.a", f"s{i}", float(i)))
        assert len(log.slowest("op.a")) == DEFAULT_SLOW_SPANS_PER_OP


class EagerSlowSpanLog(SlowSpanLog):
    """The algorithm the lazy log replaced, kept as the reference: a
    name -> value dict at span start *and* finish, the deltas and the
    full record for every span, then sort and cut."""

    def on_start(self, span):
        self._inflight[span.span_id] = self.registry.counter_values()

    def export(self, span):
        before = self._inflight.pop(span.span_id, None)
        deltas = {}
        if before is not None:
            for name, value in self.registry.counter_values().items():
                if name.startswith("spans."):
                    continue
                delta = value - before.get(name, 0.0)
                if delta:
                    deltas[name] = delta
        worst = self._worst.setdefault(span.name, [])
        worst.append({**span.to_dict(), "counter_deltas": deltas})
        worst.sort(key=lambda r: -r["duration_ms"])
        del worst[self.per_op:]


class TestSlowSpanLogEquivalence:
    """An un-admitted span costs the lazy log one comparison, yet
    ``slowest()`` reads exactly as if every record had been built."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_records_as_the_eager_log(self, seed):
        rng = np.random.default_rng(seed)
        registry = MetricsRegistry()
        registry.counter("spans.total", {"span": "op.a"})
        registry.counter("index.probes")
        lazy = SlowSpanLog(registry=registry, per_op=3)
        eager = EagerSlowSpanLog(registry=registry, per_op=3)
        names = ["index.probes"]
        open_spans: list[Span] = []
        for step in range(400):
            roll = rng.random()
            if roll < 0.35:
                # Few distinct durations: ties at the N-th place are the rule.
                span = make_span(
                    f"op.{'abc'[int(rng.integers(3))]}",
                    f"s{step}",
                    float(rng.integers(1, 6)),
                    ancestry=[s.name for s in open_spans],
                )
                span.attrs["step"] = step
                open_spans.append(span)
                lazy.on_start(span)
                eager.on_start(span)
            elif roll < 0.65 and open_spans:
                # Mostly innermost-first (nesting), sometimes out of order.
                at = -1 if rng.random() < 0.8 else int(rng.integers(len(open_spans)))
                span = open_spans.pop(at)
                registry.counter("spans.total", {"span": span.name}).inc()
                lazy.export(span)
                eager.export(span)
            elif roll < 0.9:
                registry.counter(names[int(rng.integers(len(names)))]).inc(
                    int(rng.integers(1, 4))
                )
            elif roll < 0.97:
                # A counter first registered while spans are open.
                names.append(f"late.{step}")
                registry.counter(names[-1], {"k": "v"}).inc()
            elif roll < 0.985:
                registry.reset()  # values fall under open spans: negative deltas
            else:
                registry.reset()  # obs.reset(): metrics and the log together
                lazy.clear()
                eager.clear()
            if step % 50 == 49:
                assert lazy.slowest() == eager.slowest()
        for span in reversed(open_spans):
            lazy.export(span)
            eager.export(span)
        assert lazy.operations() == eager.operations()
        assert lazy.slowest() == eager.slowest()
        for name in eager.operations():
            assert lazy.slowest(name) == eager.slowest(name)
        # The scenario did exercise what it claims to.
        records = eager.slowest()
        assert any(r["counter_deltas"] for r in records)
        assert lazy._inflight == {}

    def test_tie_with_the_nth_stays_out(self):
        lazy = SlowSpanLog(per_op=2)
        for i, duration in enumerate([5.0, 3.0, 3.0, 5.0, 4.0]):
            lazy.export(make_span("op.a", f"s{i}", duration))
        assert [r["span_id"] for r in lazy.slowest("op.a")] == ["s0", "s3"]
