"""The database: a set of tables with foreign-key enforcement."""

from __future__ import annotations

import threading

from repro.errors import IntegrityError, SchemaError
from repro.db.schema import TableSchema, tvdp_schema
from repro.db.table import Table


class Database:
    """Multi-table store enforcing referential integrity.

    Inserts check that referenced rows exist; deletes are *restricted*
    (refused while referencing rows remain), which is the safe default
    for an archival platform where images anchor satellite records.

    ``version`` is the write version: an ``int`` that only grows, moved
    by :meth:`bump` after every committed row write (insert, update,
    delete, through whichever door) and after every index write a
    catalog slice applies over these rows.  A version read once a write
    has returned is therefore newer than any answer computed while that
    write was in flight; the shard router and the answer cache read it
    to tell whether the catalog moved.  Read it freely; only
    :meth:`bump` moves it.
    """

    def __init__(self, schemas: list[TableSchema] | None = None) -> None:
        self._tables: dict[str, Table] = {}
        self.version = 0
        self._version_lock = threading.Lock()
        # table -> ((column, target table, target column), ...) an insert checks
        self._foreign_keys: dict[str, tuple[tuple[str, str, str], ...]] = {}
        for schema in schemas or []:
            self.create_table(schema)

    def bump(self) -> None:
        """Move :attr:`version` on by one (a write was committed)."""
        with self._version_lock:
            self.version += 1

    @classmethod
    def tvdp(cls) -> "Database":
        """A database with the paper's Fig. 2 schema, with hash indexes
        on the hot foreign keys and ordered indexes on the two image
        timestamps (the temporal query family's access path)."""
        db = cls(tvdp_schema())
        db.table("image_visual_features").create_index("image_id")
        db.table("image_visual_features").create_index("extractor_name")
        db.table("image_content_annotation").create_index("image_id")
        db.table("image_content_annotation").create_index("type_id")
        db.table("image_manual_keywords").create_index("image_id")
        db.table("image_fov").create_index("image_id")
        db.table("images").create_index("video_id")
        db.table("images").create_ordered_index("timestamp_capturing")
        db.table("images").create_ordered_index("timestamp_uploading")
        return db

    # -- schema ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register a new table; FK targets must already exist (self-
        references allowed)."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for column in schema.columns:
            fk = column.foreign_key
            if fk is None:
                continue
            if fk.table != schema.name and fk.table not in self._tables:
                raise SchemaError(
                    f"{schema.name}.{column.name} references unknown table {fk.table!r}"
                )
            target_schema = (
                schema if fk.table == schema.name else self._tables[fk.table].schema
            )
            if target_schema.column(fk.column).primary_key is False:
                raise SchemaError(
                    f"foreign keys must reference primary keys; "
                    f"{fk.table}.{fk.column} is not one"
                )
        table = Table(schema, on_write=self.bump)
        self._tables[schema.name] = table
        self._foreign_keys[schema.name] = tuple(
            (c.name, c.foreign_key.table, c.foreign_key.column)
            for c in schema.columns
            if c.foreign_key is not None
        )
        return table

    def table(self, name: str) -> Table:
        """Table handle by name."""
        if name not in self._tables:
            raise SchemaError(f"no such table {name!r}")
        return self._tables[name]

    def table_names(self) -> list[str]:
        """Sorted table names."""
        return sorted(self._tables)

    # -- integrity-checked mutations -------------------------------------------

    def insert(self, table_name: str, row: dict) -> int:
        """Insert with FK existence checks; returns the new PK."""
        table = self.table(table_name)
        normalized = table.schema.validate_row(row)
        for name, target, target_column in self._foreign_keys[table_name]:
            value = normalized.get(name)
            if value is not None and value not in self._tables[target]:
                raise IntegrityError(
                    f"{table_name}.{name}={value} references missing "
                    f"{target}.{target_column}"
                )
        return table._store(normalized)

    def delete(self, table_name: str, pk: int) -> None:
        """Delete with restrict semantics: fails if referenced."""
        self.table(table_name).get(pk)  # existence check
        for other_name, other in self._tables.items():
            for column in other.schema.columns:
                fk = column.foreign_key
                if fk is None or fk.table != table_name:
                    continue
                if other.find(column.name, pk):
                    raise IntegrityError(
                        f"cannot delete {table_name}[{pk}]: referenced by "
                        f"{other_name}.{column.name}"
                    )
        self.table(table_name).delete(pk)

    def delete_cascade(self, table_name: str, pk: int) -> int:
        """Delete a row and, recursively, every row referencing it.
        Returns the number of rows removed."""
        self.table(table_name).get(pk)
        removed = 0
        for other_name, other in list(self._tables.items()):
            for column in other.schema.columns:
                fk = column.foreign_key
                if fk is None or fk.table != table_name:
                    continue
                for row in other.find(column.name, pk):
                    child_pk = row[other.schema.primary_key.name]
                    if other_name == table_name and child_pk == pk:
                        continue
                    removed += self.delete_cascade(other_name, child_pk)
        self.table(table_name).delete(pk)
        return removed + 1

    def row_counts(self) -> dict[str, int]:
        """Table name -> row count (for stats endpoints and tests)."""
        return {name: len(table) for name, table in self._tables.items()}
