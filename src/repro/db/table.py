"""Row storage for one table: primary keys, uniqueness, hash and
ordered indexes."""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Iterator

from repro.errors import IntegrityError, SchemaError
from repro.db.schema import TableSchema
from repro.obs.accounting import active_ledger, charge


class Table:
    """In-memory row store with auto-increment PK and secondary indexes.

    Rows are plain dicts keyed by column name; the table owns a copy of
    every stored row, so callers can't mutate storage from outside.
    ``on_write`` is called after every committed insert, update and
    delete (its database's version bump); ``writes`` counts them.
    """

    def __init__(
        self, schema: TableSchema, on_write: Callable[[], None] | None = None
    ) -> None:
        self.schema = schema
        self._on_write = on_write or _unversioned
        # Concurrent request handlers insert and read through one
        # shared Database; every row/index access holds this lock.
        self._lock = threading.RLock()
        self._rows: dict[int, dict] = {}
        self._next_pk = 1
        self._unique: dict[str, dict[object, int]] = {
            c.name: {} for c in schema.columns if c.unique
        }
        self._indexes: dict[str, dict[object, set[int]]] = {}
        # column -> (values, pks): two parallel lists in ascending
        # (value, pk) order, so a range is two bisects and one slice.
        self._ordered: dict[str, tuple[list[Any], list[int]]] = {}
        # This table's writes alone, for a cache of something derived
        # from its rows that other tables' writes leave valid.
        self.writes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, pk: int) -> bool:
        with self._lock:
            return pk in self._rows

    # -- secondary indexes --------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build (or rebuild) an equality hash index on ``column``."""
        self.schema.column(column)
        with self._lock:
            index: dict[object, set[int]] = {}
            for pk, row in self._rows.items():
                index.setdefault(row[column], set()).add(pk)
            self._indexes[column] = index

    def _index_add(self, pk: int, row: dict) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(pk)

    def _index_remove(self, pk: int, row: dict) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index[row[column]]

    def create_ordered_index(self, column: str) -> None:
        """Build (or rebuild) an ordered index on ``column`` for
        :meth:`keys_in_range`.  Rows whose value is ``None`` or NaN are
        left out: no range contains them."""
        self.schema.column(column)
        with self._lock:
            entries = sorted(
                (row[column], pk)
                for pk, row in self._rows.items()
                if _orderable(row[column])
            )
            self._ordered[column] = (
                [value for value, _ in entries],
                [pk for _, pk in entries],
            )

    def _ordered_add(self, pk: int, row: dict) -> None:
        for column in self._ordered:
            value = row[column]
            if _orderable(value):
                at = _ordered_position(*self._ordered[column], value, pk)
                self._ordered[column][0].insert(at, value)
                self._ordered[column][1].insert(at, pk)

    def _ordered_remove(self, pk: int, row: dict) -> None:
        for column in self._ordered:
            value = row[column]
            if _orderable(value):
                at = _ordered_position(*self._ordered[column], value, pk)
                del self._ordered[column][0][at], self._ordered[column][1][at]

    # -- mutations ----------------------------------------------------------

    def insert(self, row: dict) -> int:
        """Insert a row; returns the assigned primary key."""
        return self._store(self.schema.validate_row(row))

    def _store(self, normalized: dict) -> int:
        """Store a row fresh out of ``schema.validate_row`` (the table
        keeps the dict) — ``Database.insert``'s way in, which has
        validated already to check the foreign keys."""
        pk_name = self.schema.primary_key.name
        with self._lock:
            if pk_name in normalized and normalized[pk_name] is not None:
                pk = normalized[pk_name]
                if pk in self._rows:
                    raise IntegrityError(
                        f"duplicate primary key {pk} in {self.schema.name!r}"
                    )
                self._next_pk = max(self._next_pk, pk + 1)
            else:
                pk = self._next_pk
                self._next_pk += 1
            normalized[pk_name] = pk
            for column, seen in self._unique.items():
                value = normalized.get(column)
                if value is not None and value in seen:
                    raise IntegrityError(
                        f"unique violation on {self.schema.name}.{column}: {value!r}"
                    )
            self._rows[pk] = normalized
            for column, seen in self._unique.items():
                value = normalized.get(column)
                if value is not None:
                    seen[value] = pk
            self._index_add(pk, normalized)
            self._ordered_add(pk, normalized)
            self.writes += 1
        self._on_write()
        return pk

    def update(self, pk: int, changes: dict) -> None:
        """Update columns of an existing row."""
        pk_name = self.schema.primary_key.name
        if pk_name in changes:
            raise SchemaError("primary keys are immutable")
        with self._lock:
            if pk not in self._rows:
                raise IntegrityError(f"no row {pk} in {self.schema.name!r}")
            current = dict(self._rows[pk])
            current.update(changes)
            normalized = self.schema.validate_row(current)
            normalized[pk_name] = pk
            for column, seen in self._unique.items():
                value = normalized.get(column)
                if value is not None and seen.get(value, pk) != pk:
                    raise IntegrityError(
                        f"unique violation on {self.schema.name}.{column}: {value!r}"
                    )
            old = self._rows[pk]
            self._index_remove(pk, old)
            self._ordered_remove(pk, old)
            for column, seen in self._unique.items():
                if old.get(column) is not None:
                    seen.pop(old[column], None)
                if normalized.get(column) is not None:
                    seen[normalized[column]] = pk
            self._rows[pk] = normalized
            self._index_add(pk, normalized)
            self._ordered_add(pk, normalized)
            self.writes += 1
        self._on_write()

    def delete(self, pk: int) -> None:
        """Remove a row by primary key."""
        with self._lock:
            if pk not in self._rows:
                raise IntegrityError(f"no row {pk} in {self.schema.name!r}")
            row = self._rows.pop(pk)
            self._index_remove(pk, row)
            self._ordered_remove(pk, row)
            for column, seen in self._unique.items():
                if row.get(column) is not None:
                    seen.pop(row[column], None)
            self.writes += 1
        self._on_write()

    # -- reads ----------------------------------------------------------------

    def get(self, pk: int) -> dict:
        """Row by primary key (a defensive copy)."""
        with self._lock:
            if pk not in self._rows:
                raise IntegrityError(f"no row {pk} in {self.schema.name!r}")
            charge("rows_scanned", 1)
            return dict(self._rows[pk])

    def find(self, column: str, value: object) -> list[dict]:
        """Rows where ``column == value``; uses a hash index if present.

        Rows-scanned accounting charges what the access path actually
        touched: the index bucket for indexed/unique columns, the whole
        table for the fallback scan.
        """
        self.schema.column(column)
        with self._lock:
            if column in self._indexes:
                rows = [
                    dict(self._rows[pk])
                    for pk in sorted(self._indexes[column].get(value, ()))
                ]
                charge("rows_scanned", len(rows))
                return rows
            if column in self._unique:
                pk = self._unique[column].get(value)
                charge("rows_scanned", 1 if pk is not None else 0)
                return [dict(self._rows[pk])] if pk is not None else []
            charge("rows_scanned", len(self._rows))
            return [
                dict(row) for row in self._rows.values() if row[column] == value
            ]

    def keys_in_range(
        self, column: str, low: Any = None, high: Any = None
    ) -> list[int]:
        """Primary keys of the rows with ``low <= row[column] <= high``
        in ``(value, pk)`` order, from the column's ordered index.

        ``None`` leaves that end open.  The bounds must be comparable
        with the column's values (NaN is not: callers reject it).  The
        rows themselves are not read; ``rows_scanned`` is charged one
        per key returned.
        """
        with self._lock:
            if column not in self._ordered:
                raise SchemaError(
                    f"no ordered index on {self.schema.name}.{column}"
                )
            values, pks = self._ordered[column]
            first = 0 if low is None else bisect.bisect_left(values, low)
            last = len(values) if high is None else bisect.bisect_right(values, high)
            keys = pks[first:last]
        charge("rows_scanned", len(keys))
        return keys

    def scan(self, predicate: Callable[[dict], bool] | None = None) -> Iterator[dict]:
        """Iterate rows (copies) in primary-key order, optionally filtered."""
        # One ledger lookup per scan, not per row; the generator is
        # consumed in the context that opened it.  The row snapshot is
        # taken under the lock so concurrent inserts never tear the
        # iteration; update() replaces row dicts wholesale, so the
        # snapshotted dicts themselves are stable.
        ledger = active_ledger()
        with self._lock:
            snapshot = [self._rows[pk] for pk in sorted(self._rows)]
        for row in snapshot:
            if ledger is not None:
                ledger.add("rows_scanned", 1)
            if predicate is None or predicate(row):
                yield dict(row)

    def all_rows(self) -> list[dict]:
        """Every row, PK-ordered."""
        return list(self.scan())

    def select(
        self,
        where: dict | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict]:
        """Declarative read: equality filters, ordering, and a limit.

        ``where`` maps column names to required values (conjunctive);
        the most selective indexed/unique column drives the scan.  Rows
        with ``None`` in the ``order_by`` column sort first (ascending).
        """
        if limit is not None and limit < 0:
            raise SchemaError(f"limit must be >= 0, got {limit}")
        where = where or {}
        for column in where:
            self.schema.column(column)
        if order_by is not None:
            self.schema.column(order_by)

        # Drive from an indexed equality predicate when one exists.
        driver = next(
            (
                column
                for column in where
                if column in self._indexes or column in self._unique
            ),
            None,
        )
        if driver is not None:
            candidates = self.find(driver, where[driver])
        else:
            candidates = self.all_rows()
        rows = [
            row
            for row in candidates
            if all(row[column] == value for column, value in where.items())
        ]
        if order_by is not None:
            rows.sort(
                key=lambda row: (row[order_by] is not None, row[order_by]),
                reverse=descending,
            )
        if limit is not None:
            rows = rows[:limit]
        return rows


def _unversioned() -> None:
    """The write hook of a table outside any database: nothing to move."""


def _ordered_position(values: list, pks: list[int], value: Any, pk: int) -> int:
    """Where ``(value, pk)`` is, or goes, in an ordered index: the run
    of equal values by bisection, then the pk inside it."""
    first = bisect.bisect_left(values, value)
    last = bisect.bisect_right(values, value, first)
    return bisect.bisect_left(pks, pk, first, last)


def _orderable(value: object) -> bool:
    """Whether ``value`` has a place in an ordered index (not ``None``,
    not NaN)."""
    return value is not None and value == value
