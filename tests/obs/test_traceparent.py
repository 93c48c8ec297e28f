"""W3C-style traceparent propagation: format, parse, and remote join.

The header carries a trace across process boundaries (client -> HTTP
router -> edge device transfer).  These tests pin the wire format and
the join semantics; the end-to-end client/server join lives in
``tests/integration/test_observability_cycle.py``.
"""

import contextvars

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RecordStore
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    span_tree,
)

TRACE_ID = "ab" * 16
SPAN_ID = "cd" * 8


@pytest.fixture()
def tracer():
    ring = RecordStore(registry=MetricsRegistry())
    return Tracer(ring), ring


class TestWireFormat:
    def test_format_is_versioned_and_sampled(self):
        context = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        assert format_traceparent(context) == f"00-{TRACE_ID}-{SPAN_ID}-01"

    def test_round_trip(self):
        context = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        assert parse_traceparent(format_traceparent(context)) == context

    @pytest.mark.parametrize(
        "header",
        [
            None,
            42,
            "",
            "not-a-header",
            f"00-{TRACE_ID}-{SPAN_ID}",  # missing flags part
            f"00-{TRACE_ID}-{SPAN_ID}-01-extra",
            f"01-{TRACE_ID}-{SPAN_ID}-01",  # unknown version
            f"00--{SPAN_ID}-01",  # empty trace id
            f"00-{TRACE_ID}--01",  # empty span id
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_current_traceparent_reflects_the_open_span(self, tracer):
        t, _ = tracer
        assert current_traceparent() is None
        with t.span("work") as sp:
            header = current_traceparent()
            parsed = parse_traceparent(header)
            assert parsed == TraceContext(trace_id=sp.trace_id, span_id=sp.span_id)
        assert current_traceparent() is None


class TestRemoteJoin:
    def test_remote_parent_joins_the_callers_trace(self, tracer):
        t, ring = tracer
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with t.span("server.handle", remote_parent=remote) as sp:
            assert sp.trace_id == TRACE_ID
            assert sp.parent_id == SPAN_ID
        [finished] = ring.spans()
        assert finished.trace_id == TRACE_ID

    def test_local_parent_wins_over_remote(self, tracer):
        t, _ = tracer
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with t.span("outer") as outer:
            with t.span("inner", remote_parent=remote) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_cross_context_join_builds_one_tree(self, tracer):
        """Simulate client and server processes with separate
        contextvars contexts: the server joins via the header and the
        ring buffer reassembles one tree under the client's trace id."""
        t, ring = tracer
        header_box: list[str] = []

        def client() -> None:
            with t.span("client.request"):
                header_box.append(current_traceparent())

        def server() -> None:
            remote = parse_traceparent(header_box[0])
            with t.span("server.handle", remote_parent=remote):
                with t.span("server.query"):
                    pass

        contextvars.Context().run(client)
        contextvars.Context().run(server)

        client_span = ring.spans("client.request")[0]
        [root] = span_tree(ring.spans(trace_id=client_span.trace_id))
        assert root["name"] == "client.request"
        [child] = root["children"]
        assert child["name"] == "server.handle"
        assert [g["name"] for g in child["children"]] == ["server.query"]


class TestDefaultTracerExports:
    def test_obs_span_accepts_remote_parent(self):
        obs.reset()
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with obs.span("joined.work", remote_parent=remote) as sp:
            assert sp.trace_id == TRACE_ID
        assert obs.ring_buffer().spans("joined.work")[0].trace_id == TRACE_ID
        obs.reset()
