"""Unit tests for spans, propagation, and exporters."""

import json

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RecordStore
from repro.obs.tracing import JsonlExporter, Tracer, current_span, span_tree


@pytest.fixture()
def tracer():
    """A tracer on a store of its own: its ring of records is where the
    finished spans are read back from."""
    ring = RecordStore(registry=MetricsRegistry())
    return Tracer(ring), ring


class TestSpanLifecycle:
    def test_times_and_exports(self, tracer):
        t, ring = tracer
        with t.span("query.spatial", k=5) as sp:
            assert current_span() is sp
            assert sp.attrs == {"k": 5}
        assert current_span() is None
        [finished] = ring.spans()
        assert finished.name == "query.spatial"
        assert finished.duration_ms >= 0.0
        assert finished.status == "ok"

    def test_parent_child_propagation(self, tracer):
        t, ring = tracer
        with t.span("parent") as p:
            with t.span("child") as c:
                assert c.trace_id == p.trace_id
                assert c.parent_id == p.span_id
            # Back to the parent after the child closes.
            assert current_span() is p
        assert ring.spans("child")[0].parent_id == p.span_id

    def test_siblings_share_trace_not_parenthood(self, tracer):
        t, _ = tracer
        with t.span("root") as root:
            with t.span("a") as a:
                pass
            with t.span("b") as b:
                pass
        assert a.trace_id == b.trace_id == root.trace_id
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_separate_roots_get_separate_traces(self, tracer):
        t, _ = tracer
        with t.span("one") as s1:
            pass
        with t.span("two") as s2:
            pass
        assert s1.trace_id != s2.trace_id

    def test_error_marks_span_and_reraises(self, tracer):
        t, ring = tracer
        with pytest.raises(ValueError, match="boom"):
            with t.span("fails"):
                raise ValueError("boom")
        [finished] = ring.spans()
        assert finished.status == "error"
        assert finished.error == "ValueError: boom"
        # The context is clean even after the failure.
        assert current_span() is None

    def test_registry_wiring(self, tracer):
        t, _ = tracer
        with pytest.raises(RuntimeError):
            with t.span("op"):
                raise RuntimeError
        with t.span("op"):
            pass
        snap = t.store.registry.snapshot()
        assert snap["counters"]['spans.total{span="op"}'] == 2.0
        assert snap["counters"]['spans.errors{span="op"}'] == 1.0
        assert snap["histograms"]['span.duration_ms{span="op"}']["count"] == 2


class TestHowASpanCloses:
    """What the ``try / except Exception / finally`` of the generator
    ``Tracer.span`` was did, case by case, of the class that replaced
    it: nested and root, on a tracer with a store and without."""

    @pytest.fixture(params=["stored", "bare"])
    def any_tracer(self, request, tracer):
        return tracer[0] if request.param == "stored" else Tracer()

    @staticmethod
    def _finished(t, name):
        """The closed span called ``name``: from the store when there
        is one (it landed in the unit, the unit folded), else ``None``."""
        return t.store.spans(name)[0] if t.store is not None else None

    @pytest.mark.parametrize("nested", [False, True])
    def test_an_exception_marks_it_with_type_and_message(self, any_tracer, nested):
        t = any_tracer
        outer = t.span("outer") if nested else None
        parent = outer.__enter__() if nested else None
        try:
            with pytest.raises(KeyError):
                with t.span("fails") as sp:
                    raise KeyError("gone")
            assert (sp.status, sp.error) == ("error", "KeyError: 'gone'")
            assert sp.duration_ms > 0.0
            assert current_span() is parent
        finally:
            if nested:
                outer.__exit__(None, None, None)
        assert current_span() is None
        if t.store is not None:
            assert self._finished(t, "fails") is sp
            if nested:  # the enclosing span did not fail: the error was caught inside it
                assert self._finished(t, "outer").status == "ok"

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("leaving", [KeyboardInterrupt, GeneratorExit, SystemExit])
    def test_what_is_not_an_exception_passes_through_unmarked(
        self, any_tracer, nested, leaving
    ):
        t = any_tracer
        spans = {}
        with pytest.raises(leaving):
            if nested:
                with t.span("outer") as spans["outer"]:
                    with t.span("leaves") as spans["leaves"]:
                        raise leaving()
            else:
                with t.span("leaves") as spans["leaves"]:
                    raise leaving()
        assert current_span() is None
        for sp in spans.values():
            assert (sp.status, sp.error) == ("ok", None)
            assert sp.duration_ms > 0.0
            if t.store is not None:
                assert self._finished(t, sp.name) is sp

    def test_nothing_opens_before_the_block_is_entered(self, tracer):
        t, ring = tracer
        pending = t.span("later")
        assert current_span() is None and obs.current_unit() is None
        with pending as sp:
            assert current_span() is sp and obs.current_unit() is not None
        assert ring.spans("later") == [sp] and obs.current_unit() is None

    def test_the_root_span_folds_the_unit_and_a_nested_one_does_not(self, tracer):
        t, ring = tracer
        with t.span("root"):
            with t.span("inner"):
                pass
            assert ring.records() == []  # closed into the unit, not folded yet
        [record] = ring.records()
        assert [s.name for s in record.spans] == ["inner", "root"]

    def test_a_span_is_slotted(self, tracer):
        t, _ = tracer
        with t.span("slotted") as sp:
            pass
        assert not hasattr(sp, "__dict__")
        with pytest.raises(AttributeError):
            sp.anything_else = 1


class TestSpanTree:
    def test_nested_tree_reassembly(self, tracer):
        t, ring = tracer
        with t.span("request"):
            with t.span("platform"):
                with t.span("index"):
                    pass
            with t.span("render"):
                pass
        [root] = span_tree(ring.spans())
        assert root["name"] == "request"
        names = [child["name"] for child in root["children"]]
        assert names == ["platform", "render"]
        assert root["children"][0]["children"][0]["name"] == "index"

    def test_tree_filtered_by_trace(self, tracer):
        t, ring = tracer
        with t.span("first") as s1:
            pass
        with t.span("second"):
            pass
        roots = span_tree(ring.spans(trace_id=s1.trace_id))
        assert [r["name"] for r in roots] == ["first"]

    def test_orphan_spans_become_roots(self, tracer):
        t, ring = tracer
        with t.span("parent"):
            with t.span("child"):
                pass
        # Reassembling with the parent missing promotes the child to a root.
        child = ring.spans("child")[0]
        [root] = span_tree([child])
        assert root["name"] == "child" and root["children"] == []


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        class TwoRecords(RecordStore):
            RECORDS = 2

        t = Tracer(TwoRecords())
        ring = t.store
        for name in ("a", "b", "c"):
            with t.span(name):
                pass
        assert [s.name for s in ring.spans()] == ["b", "c"]

    def test_name_filter_and_clear(self, tracer):
        t, ring = tracer
        with t.span("x"):
            pass
        with t.span("y"):
            pass
        assert len(ring.spans("x")) == 1
        ring.reset()
        assert ring.spans() == []


class TestJsonlExporter:
    def test_writes_one_json_object_per_span(self, tmp_path, tracer):
        t, ring = tracer
        path = tmp_path / "spans.jsonl"
        exporter = JsonlExporter(str(path))
        ring.add_exporter(exporter)
        with t.span("a", size=3):
            with t.span("b"):
                pass
        exporter.close()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        # Children close (and export) before parents.
        assert [r["name"] for r in records] == ["b", "a"]
        assert records[1]["attrs"] == {"size": 3}
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert {"trace_id", "span_id", "duration_ms", "status"} <= set(records[0])


class TestDefaultTracerFacade:
    def test_enable_disable_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = obs.enable_jsonl(str(path))
        assert obs.enable_jsonl(str(path)) is exporter  # idempotent per path
        try:
            with obs.span("facade.test"):
                pass
        finally:
            obs.disable_jsonl()
        assert json.loads(path.read_text().splitlines()[-1])["name"] == "facade.test"
        # Detached: new spans no longer stream to the file.
        n_lines = len(path.read_text().splitlines())
        with obs.span("facade.after"):
            pass
        assert len(path.read_text().splitlines()) == n_lines

    def test_reset_clears_values_and_buffer(self):
        with obs.span("reset.me"):
            obs.metrics().counter("reset.counter").inc()
        obs.reset()
        assert obs.snapshot()["counters"]["reset.counter"] == 0.0
        assert obs.ring_buffer().spans("reset.me") == []
