"""Row storage for one table: primary keys, uniqueness, hash and
ordered indexes."""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import IntegrityError, SchemaError
from repro.db.schema import ColumnType, TableSchema
from repro.obs.accounting import charge
from repro.obs.record import current_unit


class Table:
    """In-memory row store with auto-increment PK and secondary indexes.

    Rows are plain dicts keyed by column name; the table owns a copy of
    every stored row, so callers can't mutate storage from outside.
    The table only grows: a row, once inserted, is never deleted, and
    its key columns — the primary key, unique, indexed and foreign-key
    columns — never change (:meth:`update` replaces plain columns
    only), so an index entry is written once, by the insert.
    ``on_write`` is called after every committed insert and update (its
    database's version bump); ``writes`` counts them.
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
        # column -> its ordered index (a range is two bisections).
        self._ordered: dict[str, OrderedIndex] = {}
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

    def create_ordered_index(self, column: str) -> None:
        """Build (or rebuild) an ordered index on the REAL ``column``
        for :meth:`sorted_keys_in_range`.  Rows whose value is ``None``
        or NaN are left out: no range contains them."""
        if self.schema.column(column).type is not ColumnType.REAL:
            raise SchemaError(
                f"an ordered index needs a REAL column, not {self.schema.name}.{column}"
            )
        with self._lock:
            entries = [
                (row[column], pk)
                for pk, row in self._rows.items()
                if _orderable(row[column])
            ]
            self._ordered[column] = OrderedIndex(entries)

    def _ordered_add(self, pk: int, row: dict) -> None:
        for column, index in self._ordered.items():
            if _orderable(row[column]):
                index.add(row[column], pk)

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
        """Replace plain columns of an existing row.

        The catalog only grows: no row is deleted and no key column
        moves.  ``changes`` may not name the primary key, a unique,
        hash-indexed or ordered-indexed column, or a foreign key
        (:class:`SchemaError`), so every index and every reference
        stays as the insert left it, and an update only replaces the
        row."""
        with self._lock:
            for column in changes:
                spec = self.schema.column(column)
                if (
                    spec.primary_key
                    or spec.unique
                    or spec.foreign_key is not None
                    or column in self._indexes
                    or column in self._ordered
                ):
                    raise SchemaError(
                        f"{self.schema.name}.{column} is a key column: it never moves"
                    )
            if pk not in self._rows:
                raise IntegrityError(f"no row {pk} in {self.schema.name!r}")
            self._rows[pk] = self.schema.validate_row({**self._rows[pk], **changes})
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

    def peek(self, column: str, value: object, *columns: str) -> tuple | None:
        """``columns`` of the row whose unique ``column`` is ``value``,
        read in place, or ``None`` when no row has it.  Nothing is copied
        and nothing charged: a lookup of the access layer's own (an API
        key's), not a read a query bills."""
        with self._lock:
            pk = self._unique[column].get(value)
            if pk is None:
                return None
            return tuple(map(self._rows[pk].__getitem__, columns))

    def sorted_keys_in_range(
        self, column: str, low: Any = None, high: Any = None, owns=None
    ) -> np.ndarray:
        """Primary keys of the rows with ``low <= row[column] <= high``,
        ascending, as an int64 column, from the column's ordered index:
        the window's bisections, then one sort of the hits — only those
        ``owns`` (a key column to a mask) keeps, if given.

        ``None`` leaves that end open.  The bounds must be numbers (NaN
        is not: callers reject it).  The rows themselves are not read;
        ``rows_scanned`` is charged one per key returned.
        """
        with self._lock:
            pks, tail_pks = self._ordered_index(column).window(low, high)
        # A new array either way: the arrays' run is a view of the index.
        keys = np.concatenate((pks, tail_pks)) if tail_pks else pks.copy()
        if owns is not None:
            keys = keys[owns(keys)]
        keys.sort()
        charge("rows_scanned", len(keys))
        return keys

    def _ordered_index(self, column: str) -> "OrderedIndex":
        index = self._ordered.get(column)
        if index is None:
            raise SchemaError(f"no ordered index on {self.schema.name}.{column}")
        return index

    def scan(self, predicate: Callable[[dict], bool] | None = None) -> Iterator[dict]:
        """Iterate rows (copies) in primary-key order, optionally filtered."""
        # One look at the open unit's charge sheet per scan, not per
        # row; the generator is consumed in the context that opened it.
        # The row snapshot is taken under the lock so concurrent inserts
        # never tear the iteration; update() replaces row dicts
        # wholesale, so the snapshotted dicts themselves are stable.
        unit = current_unit()
        sheet = None if unit is None else unit.sheet
        with self._lock:
            snapshot = [self._rows[pk] for pk in sorted(self._rows)]
        for row in snapshot:
            if sheet is not None:
                sheet["rows_scanned"] = sheet.get("rows_scanned", 0.0) + 1
            if predicate is None or predicate(row):
                yield dict(row)

    def all_rows(self) -> list[dict]:
        """Every row, PK-ordered."""
        return list(self.scan())


def _unversioned() -> None:
    """The write hook of a table outside any database: nothing to move."""


def _orderable(value: object) -> bool:
    """Whether ``value`` has a place in an ordered index (not ``None``,
    not NaN)."""
    return value is not None and value == value


#: Inserts an ordered index holds in its tail before merging them in.  A
#: merge rewrites both arrays inside the insert that fills the tail, so it
#: should come rarely; a read bisects a tail this long in well under 1 µs.
_TAIL_ROWS = 256


class OrderedIndex:
    """A REAL column's orderable values and the primary keys of their
    rows, as two arrays in ascending ``(value, pk)`` order, plus a tail
    of the latest inserts, merged into the arrays now and then.

    The tail is two short lists in the same order, so a window is two
    bisections of the arrays plus two of the tail: O(log n + k) for
    ``k`` hits.  An insert places one row in the tail.  The tail is
    merged into the arrays when it reaches :data:`_TAIL_ROWS` rows, or
    by a read that finds it as the read before it left it — so a
    catalog that is only read reads arrays alone, and one that is
    written between reads merges once per :data:`_TAIL_ROWS` inserts.
    Nothing is removed: the table's rows and their ordered values only
    grow.  The arrays are replaced, never written in place, so a slice
    of them stays what it was after the table's lock is let go.  Not
    locked: the table's lock serialises everything.
    """

    def __init__(self, entries: list[tuple[float, int]]) -> None:
        entries.sort()
        self._values = np.array([value for value, _ in entries], dtype=np.float64)
        self._pks = np.array([pk for _, pk in entries], dtype=np.int64)
        self._tail_values: list[float] = []
        self._tail_pks: list[int] = []
        # The tail changed since the last read.
        self._written = False

    def add(self, value: float, pk: int) -> None:
        at = _tail_place(self._tail_values, self._tail_pks, value, pk)
        self._tail_values.insert(at, value)
        self._tail_pks.insert(at, pk)
        self._written = True
        if len(self._tail_pks) == _TAIL_ROWS:
            self._merge()

    def window(self, low: Any, high: Any) -> tuple[np.ndarray, list]:
        """The pks of the entries with ``low <= value <= high`` (``None``:
        that end open): the arrays' run, as a view, and the tail's, as a
        list — each in ``(value, pk)`` order."""
        if self._tail_pks and not self._written:
            self._merge()
        self._written = False
        values, tail = self._values, self._tail_values
        first = 0 if low is None else values.searchsorted(low)
        last = len(values) if high is None else values.searchsorted(high, "right")
        tail_first = 0 if low is None else bisect.bisect_left(tail, low)
        tail_last = len(tail) if high is None else bisect.bisect_right(tail, high)
        return self._pks[first:last], self._tail_pks[tail_first:tail_last]

    def _merge(self) -> None:
        """Place the tail into the arrays and empty it: one pass over
        each array, into new ones."""
        values = np.array(self._tail_values)
        pks = np.array(self._tail_pks, dtype=np.int64)
        # Where each tail row lands: its place among the old rows, moved
        # on by the tail rows before it (the tail is in order too).
        at = self._places(values, pks) + np.arange(len(pks))
        old = np.ones(len(self._pks) + len(pks), dtype=bool)
        old[at] = False
        merged_values = np.empty(len(old))
        merged_pks = np.empty(len(old), dtype=np.int64)
        merged_values[at], merged_pks[at] = values, pks
        merged_values[old], merged_pks[old] = self._values, self._pks
        self._values, self._pks = merged_values, merged_pks
        self._tail_values, self._tail_pks = [], []

    def _places(self, values: np.ndarray, pks: np.ndarray) -> np.ndarray:
        """Where each ``(value, pk)`` is, or goes, in the arrays: the
        run of its value by bisection, then — only inside a run of
        equal values — the pk by bisection within it."""
        at = self._values.searchsorted(values)
        end = self._values.searchsorted(values, "right")
        for i in np.flatnonzero(at < end).tolist():
            at[i] += self._pks[at[i] : end[i]].searchsorted(pks[i])
        return at


def _tail_place(values: list[float], pks: list[int], value: float, pk: int) -> int:
    """Where ``(value, pk)`` is, or goes, in a tail: the run of equal
    values by bisection, then the pk inside it."""
    first = bisect.bisect_left(values, value)
    last = bisect.bisect_right(values, value, first)
    return bisect.bisect_left(pks, pk, first, last)
