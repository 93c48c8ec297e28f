"""Resource accounting: the bill, the charge helpers, and the usage view.

A billable ``ledger_scope`` names the bill of its unit of work's
record, and the usage report is ``RecordStore.report`` over the
principal / shape / operation rollups and the time ring's spend.

The concurrency tests here are exactness proofs, not smoke: N threads
charging under M principals must produce *bit-exact* integer totals in
the table (the charge sheet rides the unit of work, which is
contextvar-scoped so threads never share one, and ``RecordStore.fold``
is the single locked boundary).  The CI
sanitize job reruns this file under ``REPRO_SANITIZE=1`` so the same
schedule also proves lock-order cleanliness.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.accounting import (
    COST_WEIGHTS,
    LOCAL_PRINCIPAL,
    Budget,
    charge,
    charge_probes,
    cost_of,
    ledger_scope,
)
from repro.obs.record import RecordStore as UsageTable
from repro.obs.record import Unit


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset()
    yield
    obs.reset()


class TestResourceLedger:
    """The charge sheet of a scope and the bill of its unit of work."""

    def test_charges_accumulate_by_kind(self):
        with ledger_scope() as meter:
            charge("rows_scanned", 3)
            charge("rows_scanned", 2)
            charge_probes("rtree", 7)
        assert meter.charges == {"rows_scanned": 5.0, "probes.rtree": 7.0}

    def test_cost_uses_weights_with_probe_prefix(self):
        table = UsageTable()
        with ledger_scope(table=table) as bill:
            charge("rows_scanned", 10)
            charge_probes("lsh", 4)
            charge_probes("rtree", 6)
            charge("feature_bytes", 2048)
        expected = (
            10 * COST_WEIGHTS["rows_scanned"]
            + 10 * COST_WEIGHTS["probes"]
            + 2048 * COST_WEIGHTS["feature_bytes"]
        )
        assert cost_of(bill.charges) == pytest.approx(expected)
        [row] = table.report()["by_principal"]
        assert row["cost"] == pytest.approx(expected)

    def test_unknown_kinds_cost_nothing(self):
        assert cost_of({"martian_units": 1e9}) == 0.0

    def test_aggregation_keys_default_to_local_work(self):
        with ledger_scope(table=UsageTable()):
            unit = obs.current_unit()
            assert unit.principal == LOCAL_PRINCIPAL
            assert unit.operation is None and unit.shape is None


class TestChargeHelpers:
    def test_no_ledger_is_a_noop(self):
        assert obs.current_unit() is None
        charge("rows_scanned", 5)  # must not raise or leak anywhere
        charge_probes("rtree", 5)
        with Unit(UsageTable()) as unit:  # a unit with no scope open
            charge("rows_scanned", 5)
        assert unit.charges == {}

    def test_charges_land_on_the_active_ledger(self):
        with ledger_scope() as ledger:
            assert obs.current_unit().sheet is ledger.charges
            charge("rows_scanned", 5)
            charge_probes("lsh", 3)
        assert obs.current_unit() is None
        assert ledger.charges == {"rows_scanned": 5.0, "probes.lsh": 3.0}

    def test_zero_amounts_never_materialise(self):
        with ledger_scope() as ledger:
            charge("rows_scanned", 0)
            charge_probes("rtree", 0)
        assert ledger.charges == {}

    def test_a_column_scan_is_billed_every_row_it_examined(self):
        """A scan reads no table row and walks no tree, but it is work:
        the bill is the live rows, whatever share of them matched."""
        from repro.geo import BoundingBox
        from repro.index.columns import PointColumns

        columns = PointColumns()
        for item in range(5):
            columns.append(item, 34.0 + item, -118.0)
        with ledger_scope() as ledger:
            inside = columns.view().rows_in(BoundingBox(34.5, -119.0, 36.5, -117.0))
        assert inside.tolist() == [1, 2]
        assert ledger.charges == {"probes.columns": 5.0}
        assert cost_of(ledger.charges) == 5.0 * COST_WEIGHTS["probes"]
        counters = obs.metrics().counter_values()
        assert counters["index.columns.scans"] == 1
        assert counters["index.columns.rows_examined"] == 5

    def test_scope_absorbs_into_table_even_on_error(self):
        table = UsageTable()
        with pytest.raises(RuntimeError):
            with ledger_scope(table=table, principal="key:abcd"):
                charge("rows_scanned", 4)
                raise RuntimeError("failed work still cost something")
        [row] = table.report()["by_principal"]
        assert row["key"] == "key:abcd"
        assert row["charges"] == {"rows_scanned": 4.0}

    def test_maybe_scope_reuses_the_enclosing_ledger(self):
        """A billable scope inside another bills the same unit: the
        principal that named the bill pays, and nothing fragments."""
        table = UsageTable()
        with ledger_scope(table=table, principal="key:abcd") as outer:
            with ledger_scope(table, principal="other") as inner:
                assert inner.charges is outer.charges
                charge("rows_scanned", 2)
        [row] = table.report()["by_principal"]
        assert row["key"] == "key:abcd"  # no bill fragmentation
        assert row["charges"] == {"rows_scanned": 2.0}

    def test_maybe_scope_opens_one_when_none_active(self):
        table = UsageTable()
        with ledger_scope(table, principal="local", operation="execute.x"):
            charge("rows_scanned", 1)
        [row] = table.report()["by_operation"]
        assert row["key"] == "execute.x"


class TestUsageTable:
    def test_aggregates_by_principal_shape_operation(self):
        table = UsageTable()
        for principal, shape in (("a", "s1"), ("a", "s2"), ("b", "s1")):
            with ledger_scope(
                table=table, principal=principal, operation="op", shape=shape
            ):
                charge("rows_scanned", 10)
        report = table.report()
        assert {r["key"]: r["count"] for r in report["by_principal"]} == {
            "a": 2,
            "b": 1,
        }
        assert {r["key"]: r["count"] for r in report["by_shape"]} == {"s1": 2, "s2": 1}
        [op_row] = report["by_operation"]
        assert op_row["count"] == 3 and op_row["charges"] == {"rows_scanned": 30.0}

    def test_rows_ranked_by_cost_and_top_bounds(self):
        table = UsageTable()
        for principal, rows in (("cheap", 1), ("costly", 100), ("mid", 10)):
            with ledger_scope(table=table, principal=principal):
                charge("rows_scanned", rows)
        ranked = [r["key"] for r in table.report()["by_principal"]]
        assert ranked == ["costly", "mid", "cheap"]
        assert len(table.report(top=2)["by_principal"]) == 2

    def test_exemplar_keeps_the_worst_trace(self):
        table = UsageTable()
        traces = {}
        for rows in (1, 50, 10):
            with ledger_scope(table=table, principal="a"):
                with obs.span("work") as span:
                    traces[rows] = span.trace_id
                    charge("rows_scanned", rows)
        [row] = table.report()["by_principal"]
        assert row["exemplar"] == {"cost": 50.0, "trace_id": traces[50]}

    def test_a_second_billable_ledger_adds_to_the_units_bill(self):
        """One unit of work, one bill: a billable ledger opened after
        the first closed (two bare platform calls under one span) adds
        its charges to the first's, and the unit counts once."""
        table = UsageTable()
        with Unit(table), obs.span("outer"):
            with ledger_scope(table=table, principal="a", operation="first"):
                charge("rows_scanned", 2)
            with ledger_scope(table=table, principal="b", operation="second"):
                charge("rows_scanned", 3)
        report = table.report()
        [row] = report["by_principal"]
        assert (row["key"], row["count"]) == ("a", 1)
        assert row["charges"] == {"rows_scanned": 5.0}
        assert [r["key"] for r in report["by_operation"]] == ["first"]

    def test_usage_metrics_emitted_per_principal(self):
        table = UsageTable(registry=obs.metrics())
        with ledger_scope(table=table, principal="key:abcd"):
            charge("rows_scanned", 5)
            charge_probes("rtree", 3)
        counters = obs.snapshot()["counters"]
        assert counters['usage.requests{principal="key:abcd"}'] == 1.0
        assert counters['usage.rows_scanned{principal="key:abcd"}'] == 5.0
        assert counters['usage.index_probes{principal="key:abcd"}'] == 3.0
        assert counters['usage.cost{principal="key:abcd"}'] == 8.0

    def test_reset_drops_aggregates_but_keeps_budget(self):
        budget = Budget(cost_per_window=10.0)
        table = UsageTable(budget=budget)
        with ledger_scope(table=table, principal="a"):
            charge("rows_scanned", 3)
        table.reset()
        assert table.report()["by_principal"] == []
        assert table.report()["budget"] == {
            "cost_per_window": 10.0, "window_s": 60.0, "overridden": False,
        }


class FakeClock:
    def __init__(self) -> None:
        self.now = 1_000.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestBudgetAndShed:
    def _spend(self, table: UsageTable, principal: str, rows: int) -> None:
        with ledger_scope(table=table, principal=principal):
            charge("rows_scanned", rows)

    def test_rolling_window_expires_old_spend(self):
        clock = FakeClock()
        table = UsageTable(clock=clock)
        def rolling_cost() -> float:
            return table.report()["rolling_cost"]["a"]

        self._spend(table, "a", 50)
        assert rolling_cost() == pytest.approx(50.0)
        clock.advance(30.0)
        self._spend(table, "a", 20)
        assert rolling_cost() == pytest.approx(70.0)
        clock.advance(45.0)  # first charge now outside the 60 s window
        assert rolling_cost() == pytest.approx(20.0)
        clock.advance(60.0)
        assert rolling_cost() == pytest.approx(0.0)

    def test_would_shed_flags_only_over_budget_principals(self):
        clock = FakeClock()
        table = UsageTable(budget=Budget(cost_per_window=100.0), clock=clock)
        self._spend(table, "hog", 500)
        self._spend(table, "modest", 10)
        # Dry run: reported, not enforced.
        assert table.report()["would_shed"] == ["hog"]

    def test_what_if_budget_without_configured_one(self):
        clock = FakeClock()
        table = UsageTable(clock=clock)  # no budget configured
        self._spend(table, "a", 80)
        assert table.report()["would_shed"] == []  # nothing configured, nothing shed
        report = table.report(budget=Budget(cost_per_window=50.0))
        assert report["would_shed"] == ["a"]
        assert report["budget"]["overridden"] is True
        assert report["rolling_cost"]["a"] == pytest.approx(80.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -1.0])
    def test_a_budget_that_cannot_be_spent_against_is_refused(self, cost):
        with pytest.raises(ValueError, match="cost_per_window"):
            Budget(cost_per_window=cost)

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf"), 0.0, -60.0])
    def test_a_window_with_no_bucket_count_is_refused(self, window_s):
        """``report()`` / ``would_shed()`` turn the window into a bucket
        count; an infinite one used to be an OverflowError there."""
        with pytest.raises(ValueError, match="window_s"):
            Budget(cost_per_window=10.0, window_s=window_s)

    def test_shed_metrics_emitted_when_over(self):
        clock = FakeClock()
        table = UsageTable(
            registry=obs.metrics(),
            budget=Budget(cost_per_window=10.0),
            clock=clock,
        )
        self._spend(table, "hog", 50)
        counters = obs.snapshot()["counters"]
        assert counters['usage.would_shed{principal="hog"}'] == 1.0
        gauges = obs.snapshot()["gauges"]
        assert gauges['usage.rolling_cost{principal="hog"}'] == 50.0


class TestConcurrencyExactness:
    """N threads x M principals: the table's totals must be exact."""

    THREADS = 8
    PRINCIPALS = 4
    REQUESTS = 50
    ROWS_PER_REQUEST = 3
    PROBES_PER_REQUEST = 2

    def test_exact_totals_under_contention(self):
        table = UsageTable(registry=obs.metrics())
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            principal = f"key:{index % self.PRINCIPALS}"
            barrier.wait()
            for _ in range(self.REQUESTS):
                with ledger_scope(
                    table=table, principal=principal, operation="op", shape="s"
                ):
                    charge("rows_scanned", self.ROWS_PER_REQUEST)
                    charge_probes("rtree", self.PROBES_PER_REQUEST)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        report = table.report()
        per_principal = self.THREADS // self.PRINCIPALS * self.REQUESTS
        assert len(report["by_principal"]) == self.PRINCIPALS
        for row in report["by_principal"]:
            assert row["count"] == per_principal
            assert row["charges"] == {
                "rows_scanned": float(per_principal * self.ROWS_PER_REQUEST),
                "probes.rtree": float(per_principal * self.PROBES_PER_REQUEST),
            }
        total = self.THREADS * self.REQUESTS
        [op_row] = report["by_operation"]
        assert op_row["count"] == total
        counters = obs.snapshot()["counters"]
        for index in range(self.PRINCIPALS):
            label = f'{{principal="key:{index}"}}'
            assert counters[f"usage.requests{label}"] == float(per_principal)
            assert counters[f"usage.rows_scanned{label}"] == float(
                per_principal * self.ROWS_PER_REQUEST
            )

    def test_threads_never_share_a_ledger(self):
        seen: dict[int, ledger_scope] = {}
        barrier = threading.Barrier(4)

        def worker(index: int) -> None:
            barrier.wait()
            with ledger_scope() as ledger:
                seen[index] = ledger
                charge("rows_scanned", index + 1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ledgers = list(seen.values())
        assert len({id(ledger) for ledger in ledgers}) == 4
        amounts = sorted(
            ledger.charges["rows_scanned"] for ledger in ledgers
        )
        assert amounts == [1.0, 2.0, 3.0, 4.0]
