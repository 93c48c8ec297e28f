"""Model-based property tests: the table engine vs a dict oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, ColumnType, Table, TableSchema
from repro.errors import IntegrityError

I, T = ColumnType.INTEGER, ColumnType.TEXT


def fresh_table():
    return Table(
        TableSchema(
            "t",
            (
                Column("id", I, primary_key=True),
                Column("name", T),
                Column("tag", T, nullable=True, unique=True),
            ),
        )
    )


# Operations: ("insert", name, tag) / ("update", idx, name)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.text(alphabet="xyz", min_size=1, max_size=3),
            st.one_of(st.none(), st.text(alphabet="abc", min_size=1, max_size=3)),
        ),
        st.tuples(st.just("update"), st.integers(0, 20), st.text("xyz", min_size=1, max_size=3)),
    ),
    max_size=40,
)


class TestTableModelBased:
    @settings(max_examples=60, deadline=None)
    @given(ops)
    def test_matches_dict_oracle(self, operations):
        table = fresh_table()
        oracle: dict[int, dict] = {}
        unique_tags: dict[str, int] = {}
        pks: list[int] = []

        for op in operations:
            if op[0] == "insert":
                _, name, tag = op
                if tag is not None and tag in unique_tags:
                    with pytest.raises(IntegrityError):
                        table.insert({"name": name, "tag": tag})
                    continue
                pk = table.insert({"name": name, "tag": tag})
                oracle[pk] = {"id": pk, "name": name, "tag": tag}
                if tag is not None:
                    unique_tags[tag] = pk
                pks.append(pk)
            else:
                _, idx, name = op
                if not pks:
                    continue
                pk = pks[idx % len(pks)]
                table.update(pk, {"name": name})
                oracle[pk]["name"] = name

        assert len(table) == len(oracle)
        assert {row["id"]: row for row in table.all_rows()} == oracle
        # find() agrees with the oracle for every live name.
        for row in oracle.values():
            hits = table.find("name", row["name"])
            expected = [r for r in oracle.values() if r["name"] == row["name"]]
            assert sorted(h["id"] for h in hits) == sorted(e["id"] for e in expected)

    @settings(max_examples=60, deadline=None)
    @given(ops)
    def test_index_consistency_under_mutation(self, operations):
        """A hash index created up front must agree with a scan after
        any operation sequence."""
        table = fresh_table()
        table.create_index("name")
        for op in operations:
            if op[0] != "insert":
                continue
            try:
                table.insert({"name": op[1], "tag": op[2]})
            except IntegrityError:
                continue
        for name in {row["name"] for row in table.all_rows()}:
            indexed = table.find("name", name)
            scanned = [row for row in table.all_rows() if row["name"] == name]
            assert sorted(r["id"] for r in indexed) == sorted(r["id"] for r in scanned)


R = ColumnType.REAL

#: Few distinct timestamps, so duplicates and exact-bound hits are common.
stamps = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.0])
maybe_stamp = st.one_of(st.none(), stamps)
bounds = st.one_of(
    st.none(), stamps, st.sampled_from([-1.0, 2.5, 9.0, float("-inf"), float("inf")])
)

# (captured, uploaded) of each row inserted
stamp_rows = st.lists(st.tuples(maybe_stamp, maybe_stamp), max_size=40)


class TestOrderedIndex:
    @settings(max_examples=100, deadline=None)
    @given(stamp_rows, st.lists(st.tuples(bounds, bounds), min_size=1, max_size=6))
    def test_range_equals_scan_under_mutation(self, inserted, windows):
        """The ordered index answers every window like a predicate scan,
        whatever rows were inserted before: inclusive ends, open ends,
        +-inf."""
        table = Table(
            TableSchema(
                "t",
                (
                    Column("id", I, primary_key=True),
                    Column("name", T, nullable=True),
                    Column("captured", R, nullable=True),
                    Column("uploaded", R, nullable=True),
                ),
            )
        )
        table.create_ordered_index("captured")
        table.create_ordered_index("uploaded")
        for captured, uploaded in inserted:
            table.insert({"captured": captured, "uploaded": uploaded})

        for column in ("captured", "uploaded"):
            for low, high in windows:
                lo = float("-inf") if low is None else low
                hi = float("inf") if high is None else high
                scanned = [
                    row["id"]
                    for row in table.scan(
                        lambda row: row[column] is not None and lo <= row[column] <= hi
                    )
                ]
                assert table.sorted_keys_in_range(column, low, high).tolist() == scanned

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_long_runs_of_equal_timestamps(self, data):
        """Two timestamps among up to 300 rows, so the inserts outrun the
        index's tail and are merged into long runs of equal values."""
        two = st.sampled_from([1.0, 2.0])
        inserted = data.draw(st.lists(st.tuples(two, two), min_size=60, max_size=300))
        windows = [(None, None), (1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.5, None)]
        self.test_range_equals_scan_under_mutation.hypothesis.inner_test(
            self, inserted, windows
        )
