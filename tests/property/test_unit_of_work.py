"""Units of work, bills and spans against a plain-dict model.

A drawn program nests, at random and with exceptions raised inside
blocks: billable ``ledger_scope(table=…)`` on one of two stores, the
private meter ``ledger_scope()``, ``obs.span`` with and without a remote
parent, ``Unit(store)``, ``charge`` / ``charge_probes`` and
``note_query`` / ``note_request``.  It is run for real, with every
store's folds captured, and through the model below, which says what
each construct means:

* a span opens a unit of work on the process store when none is open,
  and closes into the open one otherwise; its parent is the innermost
  open span — a remote parent only when there is none;
* a billable scope opens a unit when none is open, names the unit's bill
  if nothing named it yet, and bills its block to the unit; a private
  meter takes the charges of its block, whatever unit is open; a charge
  with no scope open inside the unit goes nowhere;
* a ``Unit`` folds on its own and keeps the open span as its spans'
  parent, and a scope open around it keeps taking its charges;
* a query noted with no unit open is folded at once.

Checked, record by record in fold order: the store, principal,
operation, charges and cost, the queries, the request, each span's
parent, trace, ancestry and status; and what every private meter handed
back.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.accounting import cost_of

REMOTE = obs.TraceContext("tremote", "sremote")


class Boom(Exception):
    pass


# -- programs ------------------------------------------------------------------------
#
# A node is a tuple: ("bill", store, principal, operation, shape, body),
# ("meter", body), ("span", remote, body), ("unit", store, body),
# ("catch", body), ("charge", kind, amount), ("probes", family, count),
# ("query", shape, family), ("request", request_id), ("raise",).
# Spans are named in the order they are drawn, so every name is unique.

LEAVES = st.one_of(
    st.tuples(st.just("charge"), st.sampled_from(["rows_scanned", "feature_bytes"]),
              st.integers(0, 3)),
    st.tuples(st.just("probes"), st.sampled_from(["lsh", "rtree"]), st.integers(0, 3)),
    st.tuples(st.just("query"), st.sampled_from(["q1", "q2"]),
              st.sampled_from(["spatial", None])),
    st.tuples(st.just("raise")),
)


def _blocks(body):
    return st.one_of(
        st.tuples(st.just("bill"), st.integers(0, 1), st.sampled_from(["a", "b"]),
                  st.sampled_from([None, "op1", "op2"]), st.sampled_from([None, "shape"]),
                  body),
        st.tuples(st.just("meter"), body),
        st.tuples(st.just("span"), st.booleans(), body),
        st.tuples(st.just("unit"), st.integers(0, 1), body),
        st.tuples(st.just("catch"), body),
    )


def _node(depth: int):
    if depth == 0:
        return LEAVES
    body = st.lists(st.deferred(lambda: _node(depth - 1)), max_size=3)
    return st.one_of(LEAVES, _blocks(body), st.tuples(st.just("request"), st.integers(0, 9)))


PROGRAMS = st.lists(_node(4), min_size=1, max_size=4)


# -- the real run ----------------------------------------------------------------------


class Run:
    def __init__(self, stores) -> None:
        self.stores = stores
        self.meters: list[dict] = []
        self.spans = 0

    def block(self, nodes) -> None:
        for node in nodes:
            self.node(node)

    def node(self, node) -> None:
        kind = node[0]
        if kind == "bill":
            _, store, principal, operation, shape, body = node
            with obs.ledger_scope(
                table=self.stores[store], principal=principal, operation=operation,
                shape=shape,
            ):
                self.block(body)
        elif kind == "meter":
            scope = obs.ledger_scope()
            try:
                with scope as meter:
                    self.block(node[1])
            finally:
                self.meters.append(dict(meter.charges))
        elif kind == "span":
            name = f"s{self.spans}"
            self.spans += 1
            with obs.span(name, remote_parent=REMOTE if node[1] else None):
                self.block(node[2])
        elif kind == "unit":
            with obs.Unit(self.stores[node[1]]):
                self.block(node[2])
        elif kind == "catch":
            try:
                self.block(node[1])
            except Boom:
                pass
        elif kind == "charge":
            obs.charge(node[1], node[2])
        elif kind == "probes":
            obs.charge_probes(node[1], node[2])
        elif kind == "query":
            obs.note_query(node[1], node[2], 1.0)
        elif kind == "request":
            span = obs.current_span()
            if span is not None:
                obs.note_request(f"r{node[1]}", "GET", "/r", 200, span)
        else:
            raise Boom("boom")


# -- the model -------------------------------------------------------------------------


class Model:
    def __init__(self) -> None:
        self.folds: list[tuple[int, dict]] = []
        self.meters: list[dict] = []
        self.unit: dict | None = None
        self.ledger: dict | None = None
        self.span: dict | None = None
        self.spans = 0

    def open_unit(self, store: int) -> dict:
        unit = {"store": store, "spans": [], "queries": [], "bill": None, "request": None}
        self.unit = unit
        return unit

    def close_unit(self, unit: dict) -> None:
        bill, request = unit["bill"], unit["request"]
        queries = list(unit["queries"])
        record = {
            "principal": None, "operation": None, "charges": {}, "cost": 0.0,
            "request": None, "error": None,
        }
        if request is not None:
            request_id, span = request
            record["request"] = (request_id, "GET", "/r", 200)
            record["error"] = span["error"]
            record["operation"] = "GET /r"
        if bill is not None:
            record["principal"] = bill["principal"]
            record["charges"] = dict(bill["charges"])
            record["cost"] = cost_of(bill["charges"])
            record["operation"] = record["operation"] or bill["operation"]
            if bill["shape"] and not queries:
                queries = [(bill["shape"], None)]
        record["queries"] = queries
        record["spans"] = [
            (s["name"], s["parent"], s["trace"], s["ancestry"], s["status"], s["error"])
            for s in unit["spans"]
        ]
        self.folds.append((unit["store"], record))

    def block(self, nodes) -> None:
        for node in nodes:
            self.node(node)

    def node(self, node) -> None:
        kind = node[0]
        if kind == "bill":
            _, store, principal, operation, shape, body = node
            unit, root = self.unit, self.unit is None
            if root:
                unit = self.open_unit(store)
            ledger = {"principal": principal, "operation": operation, "shape": shape,
                      "charges": {}}
            if unit["bill"] is None:
                unit["bill"] = ledger
            outer, self.ledger = self.ledger, ledger
            try:
                self.block(body)
            finally:
                self.ledger = outer
                if unit["bill"] is not ledger:
                    _add_all(unit["bill"]["charges"], ledger["charges"])
                if root:
                    self.unit = None
                    self.close_unit(unit)
        elif kind == "meter":
            meter = {"charges": {}}
            outer, self.ledger = self.ledger, meter
            try:
                self.block(node[1])
            finally:
                self.ledger = outer
                self.meters.append(dict(meter["charges"]))
        elif kind == "span":
            name = f"s{self.spans}"
            self.spans += 1
            parent = self.span
            if parent is not None:
                trace, parent_name = parent["trace"], parent["name"]
                ancestry = (*parent["ancestry"], parent["name"])
            elif node[1]:
                trace, parent_name, ancestry = REMOTE.trace_id, REMOTE.span_id, ()
            else:
                trace, parent_name, ancestry = f"T{name}", None, ()
            unit, root = self.unit, self.unit is None
            if root:
                unit = self.open_unit(0)
            span = {"name": name, "parent": parent_name, "trace": trace,
                    "ancestry": ancestry, "status": "ok", "error": None}
            self.span = span
            try:
                self.block(node[2])
            except Boom as exc:
                span["status"], span["error"] = "error", f"Boom: {exc}"
                raise
            finally:
                self.span = parent
                unit["spans"].append(span)
                if root:
                    self.unit = None
                    self.close_unit(unit)
        elif kind == "unit":
            outer, unit = self.unit, self.open_unit(node[1])
            try:
                self.block(node[2])
            finally:
                self.unit = outer
                self.close_unit(unit)
        elif kind == "catch":
            try:
                self.block(node[1])
            except Boom:
                pass
        elif kind in ("charge", "probes"):
            amount = node[2]
            if amount and self.ledger is not None:
                key = node[1] if kind == "charge" else f"probes.{node[1]}"
                _add_all(self.ledger["charges"], {key: float(amount)})
        elif kind == "query":
            if self.unit is not None:
                self.unit["queries"].append((node[1], node[2]))
            else:
                self.folds.append((0, {
                    "principal": None, "operation": None, "charges": {}, "cost": 0.0,
                    "request": None, "error": None, "queries": [(node[1], node[2])],
                    "spans": [],
                }))
        elif kind == "request":
            if self.span is not None and self.unit is not None:
                self.unit["request"] = (f"r{node[1]}", self.span)
        else:
            raise Boom("boom")


def _add_all(into: dict, charges: dict) -> None:
    for kind, amount in charges.items():
        into[kind] = into.get(kind, 0.0) + amount


# -- what is compared --------------------------------------------------------------------


def _observed(folds) -> list[tuple[int, dict]]:
    """The real folds in the model's terms: span and trace ids become
    the names of the span and of the trace's root."""
    spans = [span for _, record in folds for span in record.spans]
    names = {span.span_id: span.name for span in spans}
    roots = {span.trace_id: f"T{span.name}" for span in spans if span.parent_id is None}
    roots[REMOTE.trace_id] = REMOTE.trace_id
    out = []
    for store, record in folds:
        request = None
        if record.request_id is not None:
            request = (record.request_id, record.method, record.route, record.status)
        out.append((store, {
            "principal": record.principal,
            "operation": record.operation,
            "charges": dict(record.charges),
            "cost": pytest.approx(record.cost),
            "request": request,
            "error": record.error,
            "queries": [(shape, family) for shape, family, _ in record.queries],
            "spans": [
                (s.name, names.get(s.parent_id, s.parent_id), roots[s.trace_id],
                 tuple(s.ancestry), s.status, s.error)
                for s in record.spans
            ],
        }))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(program=PROGRAMS)
def test_units_bills_and_spans_fold_as_the_model_says(program):
    obs.reset()
    folds: list = []
    stores = (obs.records(), obs.RecordStore())
    for number, store in enumerate(stores):
        store.fold = lambda record, number=number: folds.append((number, record))
    run, model = Run(stores), Model()
    raised = modelled = False
    try:
        try:
            run.block(program)
        except Boom:
            raised = True
    finally:
        del stores[0].fold  # the process store folds for real again
    try:
        model.block(program)
    except Boom:
        modelled = True
    assert raised == modelled
    assert obs.current_unit() is None and obs.current_span() is None
    assert run.meters == model.meters
    assert _observed(folds) == model.folds
