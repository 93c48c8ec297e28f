"""Unit tests for the slow-span view.

The ``SlowSpanLog`` suite ported case by case: the worst-N per operation
is a ``Rollup`` over span names now, fed by ``RecordStore.fold`` and
read by ``RecordStore.slowest``.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RecordStore, RequestRecord, Rollup, Unit
from repro.obs.tracing import Span


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


def export(store, span, counters=None):
    """``span`` as the one span of a folded record."""
    store.fold(RequestRecord(spans=(span,), counters=counters))


class TestSlowSpanLog:
    def test_rejects_nonpositive_per_op(self):
        with pytest.raises(ValueError, match="worst"):
            Rollup(worst=-1)

    def test_keeps_worst_n_per_operation(self):
        class TwoPerOp(RecordStore):
            SLOW_PER_OP = 2

        log = TwoPerOp()
        for i, duration in enumerate([10.0, 50.0, 30.0, 5.0]):
            export(log, make_span("op.a", f"s{i}", duration))
        records = log.slowest("op.a")
        assert [r["duration_ms"] for r in records] == [50.0, 30.0]

    def test_slowest_merges_operations_and_limits(self):
        log = RecordStore()
        export(log, make_span("op.a", "s1", 10.0))
        export(log, make_span("op.b", "s2", 90.0))
        export(log, make_span("op.b", "s3", 40.0))
        merged = log.slowest()
        assert [r["name"] for r in merged] == ["op.b", "op.b", "op.a"]
        assert len(log.slowest(limit=1)) == 1
        assert log.operations() == ["op.a", "op.b"]

    def test_records_carry_ancestry(self):
        log = RecordStore()
        export(log, make_span("index.query", "s1", 5.0, ancestry=("http.request", "query.spatial")))
        record = log.slowest("index.query")[0]
        assert record["ancestry"] == ["http.request", "query.spatial"]

    def test_counter_deltas_exclude_tracer_bookkeeping(self):
        registry = MetricsRegistry()
        log = RecordStore(registry=registry)
        with Unit(log), obs.span("query.spatial"):  # an earlier one: spans.* are registered
            pass
        log.reset()
        with Unit(log), obs.span("query.spatial"):
            with obs.span("index.probe"):
                registry.counter("index.rtree.node_visits").inc(7)
        record = log.slowest("query.spatial")[0]
        assert record["counter_deltas"] == {"index.rtree.node_visits": 7.0}

    def test_deltas_count_only_work_inside_the_span(self):
        registry = MetricsRegistry()
        log = RecordStore(registry=registry)
        registry.counter("index.probes").inc(100)  # before the span opens
        with Unit(log), obs.span("query.visual"):
            registry.counter("index.probes").inc(3)
        registry.counter("index.probes").inc(50)  # after it closed
        record = log.slowest("query.visual")[0]
        assert record["counter_deltas"] == {"index.probes": 3.0}

    def test_deltas_are_the_records_one_snapshot_pair(self):
        """One snapshot pair per record, not per span: every exemplar of
        a record carries what moved while the *unit* was open."""
        registry = MetricsRegistry()
        log = RecordStore(registry=registry)
        with Unit(log), obs.span("http.request"):
            registry.counter("auth.lookups").inc()
            with obs.span("query.spatial"):
                registry.counter("index.probes").inc(4)
        deltas = {"auth.lookups": 1.0, "index.probes": 4.0}
        assert log.slowest("query.spatial")[0]["counter_deltas"] == deltas
        assert log.slowest("http.request")[0]["counter_deltas"] == deltas
        assert log.records()[-1].counter_deltas == deltas

    def test_clear_drops_everything(self):
        log = RecordStore()
        export(log, make_span("op.a", "s1", 1.0))
        log.reset()
        assert log.slowest() == []
        assert log.operations() == []

    def test_default_capacity(self):
        log = RecordStore()
        for i in range(RecordStore.SLOW_PER_OP + 5):
            export(log, make_span("op.a", f"s{i}", float(i)))
        assert len(log.slowest("op.a")) == RecordStore.SLOW_PER_OP


class ThreePerOp(RecordStore):
    SLOW_PER_OP = 3


def eager_slowest(folded, per_op):
    """The algorithm the lazy admission replaced, kept as the reference:
    a name -> value dict when the unit opens *and* when it closes, the
    deltas and the full exemplar for every span of every record, then
    sort and cut."""
    worst: dict[str, list[dict]] = {}
    for spans, before, after in folded:
        deltas = {}
        for name, value in after.items():
            if name.startswith("spans."):
                continue
            delta = value - before.get(name, 0.0)
            if delta:
                deltas[name] = delta
        for span in spans:
            records = worst.setdefault(span.name, [])
            records.append({**span.to_dict(), "counter_deltas": deltas})
            records.sort(key=lambda r: -r["duration_ms"])
            del records[per_op:]
    return worst


class TestSlowSpanLogEquivalence:
    """A span that cannot enter its operation's worst-N costs the fold
    one comparison, yet ``slowest()`` reads exactly as if every exemplar
    had been built."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_records_as_the_eager_log(self, seed):
        rng = np.random.default_rng(seed)
        registry = MetricsRegistry()
        registry.counter("spans.total", {"span": "op.a"})
        registry.counter("index.probes")
        lazy = ThreePerOp(registry=registry)
        folded: list[tuple] = []  # what the eager reference is run over
        widest = 0  # most spans in one folded record
        with_deltas = 0  # exemplars seen carrying counter deltas
        names = ["index.probes"]
        # Units of work open at once (concurrent requests): each took
        # its snapshots when it opened and has finished some spans.
        open_units: list[tuple] = []

        def check() -> None:
            nonlocal with_deltas
            eager = eager_slowest(folded, per_op=3)
            assert lazy.operations() == sorted(eager)
            for name, records in eager.items():
                assert lazy.slowest(name) == records
            merged = sorted(
                (r for records in eager.values() for r in records),
                key=lambda r: -r["duration_ms"],
            )
            assert lazy.slowest() == merged
            with_deltas += sum(1 for r in merged if r["counter_deltas"])

        for step in range(400):
            roll = rng.random()
            if roll < 0.2:
                open_units.append(
                    ([], registry.counter_snapshot(), registry.counter_values())
                )
            elif roll < 0.5 and open_units:
                # Few distinct durations: ties at the N-th place are the rule.
                spans = open_units[int(rng.integers(len(open_units)))][0]
                span = make_span(
                    f"op.{'abc'[int(rng.integers(3))]}",
                    f"s{step}",
                    float(rng.integers(1, 6)),
                    ancestry=[s.name for s in spans],
                )
                span.attrs["step"] = step
                spans.append(span)
            elif roll < 0.65 and open_units:
                # Mostly the newest unit closes, sometimes an older one.
                at = -1 if rng.random() < 0.8 else int(rng.integers(len(open_units)))
                spans, before, before_values = open_units.pop(at)
                counters = (registry, before, registry.counter_snapshot())
                folded.append((spans, before_values, registry.counter_values()))
                widest = max(widest, len(spans))
                lazy.fold(RequestRecord(spans=tuple(spans), counters=counters))
            elif roll < 0.9:
                registry.counter(names[int(rng.integers(len(names)))]).inc(
                    int(rng.integers(1, 4))
                )
            elif roll < 0.97:
                # A counter first registered while units are open.
                names.append(f"late.{step}")
                registry.counter(names[-1], {"k": "v"}).inc()
            elif roll < 0.985:
                registry.reset()  # values fall under open units: negative deltas
            else:
                registry.reset()  # obs.reset(): metrics and the store together
                lazy.reset()
                folded.clear()
            if step % 50 == 49:
                check()
        check()
        # The scenario did exercise what it claims to.
        assert with_deltas and widest > 1

    def test_tie_with_the_nth_stays_out(self):
        class TwoPerOp(RecordStore):
            SLOW_PER_OP = 2

        lazy = TwoPerOp()
        for i, duration in enumerate([5.0, 3.0, 3.0, 5.0, 4.0]):
            export(lazy, make_span("op.a", f"s{i}", duration))
        assert [r["span_id"] for r in lazy.slowest("op.a")] == ["s0", "s3"]
