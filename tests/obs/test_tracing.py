"""Unit tests for spans, propagation, and exporters."""

import json

import pytest

from repro import obs
from repro.obs.record import RecordStore, Unit
from repro.obs.tracing import JsonlExporter, current_span, span_tree


@pytest.fixture()
def ring():
    """The process-wide store, where a span that opens with no unit of
    work open folds: its ring of records is where the finished spans
    are read back from."""
    obs.reset()
    yield obs.records()
    obs.reset()


class TestSpanLifecycle:
    def test_times_and_exports(self, ring):
        with obs.span("query.spatial", k=5) as sp:
            assert current_span() is sp
            assert sp.attrs == {"k": 5}
        assert current_span() is None
        [finished] = ring.spans()
        assert finished.name == "query.spatial"
        assert finished.duration_ms >= 0.0
        assert finished.status == "ok"

    def test_parent_child_propagation(self, ring):
        with obs.span("parent") as p:
            with obs.span("child") as c:
                assert c.trace_id == p.trace_id
                assert c.parent_id == p.span_id
            # Back to the parent after the child closes.
            assert current_span() is p
        assert ring.spans("child")[0].parent_id == p.span_id

    def test_siblings_share_trace_not_parenthood(self, ring):
        with obs.span("root") as root:
            with obs.span("a") as a:
                pass
            with obs.span("b") as b:
                pass
        assert a.trace_id == b.trace_id == root.trace_id
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_separate_roots_get_separate_traces(self, ring):
        with obs.span("one") as s1:
            pass
        with obs.span("two") as s2:
            pass
        assert s1.trace_id != s2.trace_id

    def test_error_marks_span_and_reraises(self, ring):
        with pytest.raises(ValueError, match="boom"):
            with obs.span("fails"):
                raise ValueError("boom")
        [finished] = ring.spans()
        assert finished.status == "error"
        assert finished.error == "ValueError: boom"
        # The context is clean even after the failure.
        assert current_span() is None

    def test_registry_wiring(self, ring):
        with pytest.raises(RuntimeError):
            with obs.span("op"):
                raise RuntimeError
        with obs.span("op"):
            pass
        snap = ring.registry.snapshot()
        assert snap["counters"]['spans.total{span="op"}'] == 2.0
        assert snap["counters"]['spans.errors{span="op"}'] == 1.0
        assert snap["histograms"]['span.duration_ms{span="op"}']["count"] == 2


class TestHowASpanCloses:
    """How a span's ``with`` block closes, case by case: nested and
    root, as the unit of work (``stored``: it folds on the process
    store) and inside a unit someone else opened (``bare``: nothing
    folds until that unit closes, after the test)."""

    @pytest.fixture(params=["stored", "bare"])
    def any_store(self, request, ring):
        if request.param == "stored":
            yield ring
        else:
            with Unit(RecordStore()):
                yield None

    @staticmethod
    def _finished(store, name):
        """The closed span called ``name``, from the store it folded
        into."""
        return store.spans(name)[0]

    @pytest.mark.parametrize("nested", [False, True])
    def test_an_exception_marks_it_with_type_and_message(self, any_store, nested):
        store = any_store
        outer = obs.span("outer") if nested else None
        parent = outer.__enter__() if nested else None
        try:
            with pytest.raises(KeyError):
                with obs.span("fails") as sp:
                    raise KeyError("gone")
            assert (sp.status, sp.error) == ("error", "KeyError: 'gone'")
            assert sp.duration_ms > 0.0
            assert current_span() is parent
        finally:
            if nested:
                outer.__exit__(None, None, None)
        assert current_span() is None
        if store is not None:
            assert self._finished(store, "fails") is sp
            if nested:  # the enclosing span did not fail: the error was caught inside it
                assert self._finished(store, "outer").status == "ok"

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("leaving", [KeyboardInterrupt, GeneratorExit, SystemExit])
    def test_what_is_not_an_exception_passes_through_unmarked(
        self, any_store, nested, leaving
    ):
        store = any_store
        spans = {}
        with pytest.raises(leaving):
            if nested:
                with obs.span("outer") as spans["outer"]:
                    with obs.span("leaves") as spans["leaves"]:
                        raise leaving()
            else:
                with obs.span("leaves") as spans["leaves"]:
                    raise leaving()
        assert current_span() is None
        for sp in spans.values():
            assert (sp.status, sp.error) == ("ok", None)
            assert sp.duration_ms > 0.0
            if store is not None:
                assert self._finished(store, sp.name) is sp

    def test_nothing_opens_before_the_block_is_entered(self, ring):
        pending = obs.span("later")
        assert current_span() is None and obs.current_unit() is None
        with pending as sp:
            assert current_span() is sp and obs.current_unit() is not None
        assert ring.spans("later") == [sp] and obs.current_unit() is None

    def test_the_root_span_folds_the_unit_and_a_nested_one_does_not(self, ring):
        with obs.span("root"):
            with obs.span("inner"):
                pass
            assert ring.records() == []  # closed into the unit, not folded yet
        [record] = ring.records()
        assert [s.name for s in record.spans] == ["inner", "root"]

    def test_a_span_is_slotted(self, ring):
        with obs.span("slotted") as sp:
            pass
        assert not hasattr(sp, "__dict__")
        with pytest.raises(AttributeError):
            sp.anything_else = 1


class TestSpanTree:
    def test_nested_tree_reassembly(self, ring):
        with obs.span("request"):
            with obs.span("platform"):
                with obs.span("index"):
                    pass
            with obs.span("render"):
                pass
        [root] = span_tree(ring.spans())
        assert root["name"] == "request"
        names = [child["name"] for child in root["children"]]
        assert names == ["platform", "render"]
        assert root["children"][0]["children"][0]["name"] == "index"

    def test_tree_filtered_by_trace(self, ring):
        with obs.span("first") as s1:
            pass
        with obs.span("second"):
            pass
        roots = span_tree(ring.spans(trace_id=s1.trace_id))
        assert [r["name"] for r in roots] == ["first"]

    def test_orphan_spans_become_roots(self, ring):
        with obs.span("parent"):
            with obs.span("child"):
                pass
        # Reassembling with the parent missing promotes the child to a root.
        child = ring.spans("child")[0]
        [root] = span_tree([child])
        assert root["name"] == "child" and root["children"] == []


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        class TwoRecords(RecordStore):
            RECORDS = 2

        ring = TwoRecords()
        for name in ("a", "b", "c"):
            with Unit(ring), obs.span(name):
                pass
        assert [s.name for s in ring.spans()] == ["b", "c"]

    def test_name_filter_and_clear(self, ring):
        with obs.span("x"):
            pass
        with obs.span("y"):
            pass
        assert len(ring.spans("x")) == 1
        ring.reset()
        assert ring.spans() == []


class TestJsonlExporter:
    def test_writes_one_json_object_per_span(self, tmp_path, ring):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlExporter(str(path))
        ring.add_exporter(exporter)
        try:
            with obs.span("a", size=3):
                with obs.span("b"):
                    pass
        finally:
            ring.remove_exporter(exporter)
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
