"""W3C-style traceparent propagation: format, parse, and remote join.

The header carries a trace across process boundaries (client -> HTTP
router -> edge device transfer).  These tests pin the wire format and
the join semantics; the end-to-end client/server join lives in
``tests/integration/test_observability_cycle.py``.
"""

import contextvars

import pytest

from repro import obs
from repro.api import Request
from repro.obs.tracing import (
    TraceContext,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    span_tree,
)

TRACE_ID = "ab" * 16
SPAN_ID = "cd" * 8


@pytest.fixture()
def ring():
    """The process-wide store, where the spans below fold."""
    obs.reset()
    yield obs.records()
    obs.reset()


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
            # An id is 1-32 lowercase letters and digits: anything else
            # would be stamped on every log line of the request.
            f"00-t 1-{SPAN_ID}-01",  # a space
            f"00-{TRACE_ID}-s1\n-01",  # a newline
            f"00-{TRACE_ID}-s\x00-01",  # a NUL
            "00-t 1-s\x00-01",
            f"00-{TRACE_ID.upper()}-{SPAN_ID}-01",  # uppercase
            f"00-{'a' * 33}-{SPAN_ID}-01",  # 33 characters
            f"00-{TRACE_ID}-{'b' * 33}-01",
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_current_traceparent_reflects_the_open_span(self, ring):
        assert current_traceparent() is None
        with obs.span("work") as sp:
            header = current_traceparent()
            parsed = parse_traceparent(header)
            assert parsed == TraceContext(trace_id=sp.trace_id, span_id=sp.span_id)
        assert current_traceparent() is None


class TestRemoteJoin:
    def test_remote_parent_joins_the_callers_trace(self, ring):
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with obs.span("server.handle", remote_parent=remote) as sp:
            assert sp.trace_id == TRACE_ID
            assert sp.parent_id == SPAN_ID
        [finished] = ring.spans()
        assert finished.trace_id == TRACE_ID

    def test_local_parent_wins_over_remote(self, ring):
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with obs.span("outer") as outer:
            with obs.span("inner", remote_parent=remote) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_cross_context_join_builds_one_tree(self, ring):
        """Simulate client and server processes with separate
        contextvars contexts: the server joins via the header and the
        ring buffer reassembles one tree under the client's trace id."""
        header_box: list[str] = []

        def client() -> None:
            with obs.span("client.request"):
                header_box.append(current_traceparent())

        def server() -> None:
            remote = parse_traceparent(header_box[0])
            with obs.span("server.handle", remote_parent=remote):
                with obs.span("server.query"):
                    pass

        contextvars.Context().run(client)
        contextvars.Context().run(server)

        client_span = ring.spans("client.request")[0]
        [root] = span_tree(ring.spans(trace_id=client_span.trace_id))
        assert root["name"] == "client.request"
        [child] = root["children"]
        assert child["name"] == "server.handle"
        assert [g["name"] for g in child["children"]] == ["server.query"]


def test_a_request_with_a_malformed_header_starts_a_fresh_trace(ring):
    from tests.api import route_table

    h = route_table.harness()
    request = Request(
        "POST", "/search", body=route_table.query_body("temporal"), api_key=h.api_key,
        headers={"traceparent": f"00-t 1\nFORGED-{SPAN_ID}-01"},
    )
    assert h.service.handle(request).status == 200
    record = obs.records().request(request.request_id)
    [root] = [span for span in record.spans if span.name == "http.request"]
    assert root.parent_id is None and root.trace_id == record.trace_id
    assert parse_traceparent(f"00-{root.trace_id}-{root.span_id}-01") is not None


class TestDefaultTracerExports:
    def test_obs_span_accepts_remote_parent(self):
        obs.reset()
        remote = TraceContext(trace_id=TRACE_ID, span_id=SPAN_ID)
        with obs.span("joined.work", remote_parent=remote) as sp:
            assert sp.trace_id == TRACE_ID
        assert obs.ring_buffer().spans("joined.work")[0].trace_id == TRACE_ID
        obs.reset()
