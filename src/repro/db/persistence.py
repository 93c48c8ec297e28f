"""JSON persistence for the database.

A TVDP deployment would sit on PostgreSQL; for the reproduction the
whole store round-trips through a single JSON document, which keeps
examples self-contained and the on-disk format inspectable.

Saves and loads are *resilient*: both run through the platform's
retry policies and the ``db.save`` / ``db.load`` fault-injection sites
(see :mod:`repro.resilience`).  A save writes to a temp file, reads it
back to verify the JSON survived, and only then atomically replaces the
target — so a torn or corrupted write is detected and retried instead
of destroying the previous good snapshot, and a retried save is
idempotent by construction.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.errors import FaultInjected, SchemaError
from repro.db.database import Database
from repro.db.schema import Column, ColumnType, ForeignKey, TableSchema
from repro.resilience import Clock, Retry, corrupt, current_clock, inject

_FORMAT_VERSION = 1

#: Fault-injection sites for persistence (see ``repro.resilience``).
SAVE_SITE = "db.save"
LOAD_SITE = "db.load"

#: Errors worth retrying around persistence: injected chaos, filesystem
#: hiccups, and corruption caught by save verification / load parsing.
_PERSIST_TRANSIENT = (FaultInjected, OSError, SchemaError)

_VERIFY_FAILURES = obs.metrics().counter("db.persist.verify_failures")


def _schema_to_dict(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [
            {
                "name": c.name,
                "type": c.type.value,
                "nullable": c.nullable,
                "primary_key": c.primary_key,
                "unique": c.unique,
                "foreign_key": (
                    {"table": c.foreign_key.table, "column": c.foreign_key.column}
                    if c.foreign_key
                    else None
                ),
            }
            for c in schema.columns
        ],
    }


def _schema_from_dict(data: dict) -> TableSchema:
    columns = tuple(
        Column(
            name=c["name"],
            type=ColumnType(c["type"]),
            nullable=c["nullable"],
            primary_key=c["primary_key"],
            unique=c["unique"],
            foreign_key=(
                ForeignKey(c["foreign_key"]["table"], c["foreign_key"]["column"])
                if c.get("foreign_key")
                else None
            ),
        )
        for c in data["columns"]
    )
    return TableSchema(data["name"], columns)


def dump_database(
    db: Database,
    path: str | Path,
    clock: Clock | None = None,
    max_attempts: int = 3,
    seed: int = 0,
) -> None:
    """Write schema + rows + index definitions to a JSON file.

    The document is serialised once, then each attempt writes it to a
    sibling temp file, reads that back to prove the bytes parse, and
    atomically renames over ``path``.  A verification failure (e.g. a
    ``db.save`` corruption fault, or a disk that lied) raises
    :class:`SchemaError` and is retried; ``path`` never holds a partial
    snapshot.
    """
    document = {"version": _FORMAT_VERSION, "tables": []}
    for name in db.table_names():
        table = db.table(name)
        document["tables"].append(
            {
                "schema": _schema_to_dict(table.schema),
                "rows": table.all_rows(),
                "indexes": sorted(table._indexes),
                "ordered_indexes": sorted(table._ordered),
            }
        )
    serialized = json.dumps(document)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    resolved = current_clock(clock)

    def one_attempt() -> None:
        with obs.span("db.persist.attempt", op="save"):
            inject(SAVE_SITE, resolved)
            text = corrupt(SAVE_SITE, serialized)
            if not isinstance(text, str):
                raise SchemaError("database snapshot corrupted before write")
            tmp.write_text(text)
            try:
                json.loads(tmp.read_text())
            except ValueError as exc:
                _VERIFY_FAILURES.inc()
                tmp.unlink(missing_ok=True)
                raise SchemaError(
                    f"database snapshot failed read-back verification: {exc}"
                ) from exc
            os.replace(tmp, target)

    retry = Retry(
        max_attempts=max_attempts,
        base_delay_s=0.05,
        retry_on=_PERSIST_TRANSIENT,
        seed=seed,
        clock=resolved,
        site=SAVE_SITE,
    )
    with obs.span("db.persist", op="save", tables=len(document["tables"])):
        retry.call(one_attempt)


def load_database(
    path: str | Path,
    clock: Clock | None = None,
    max_attempts: int = 3,
    seed: int = 0,
) -> Database:
    """Rebuild a database from :func:`dump_database` output.

    Reads run through the ``db.load`` fault site and the same retry
    policy as saves — a transient read error or an injected corruption
    gets a fresh read of the (atomically written, hence never partial)
    snapshot.
    """
    resolved = current_clock(clock)

    def one_attempt() -> dict:
        with obs.span("db.persist.attempt", op="load"):
            inject(LOAD_SITE, resolved)
            text = corrupt(LOAD_SITE, Path(path).read_text())
            if not isinstance(text, str):
                raise SchemaError("database snapshot corrupted during read")
            try:
                parsed = json.loads(text)
            except ValueError as exc:
                raise SchemaError(f"database file is not valid JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise SchemaError("database file must hold a JSON object")
            return parsed

    retry = Retry(
        max_attempts=max_attempts,
        base_delay_s=0.05,
        retry_on=_PERSIST_TRANSIENT,
        seed=seed,
        clock=resolved,
        site=LOAD_SITE,
    )
    with obs.span("db.persist", op="load"):
        document = retry.call(one_attempt)
        return _build_database(document)


def _build_database(document: dict) -> Database:
    """Rebuild the in-memory database from one parsed snapshot."""
    if document.get("version") != _FORMAT_VERSION:
        raise SchemaError(
            f"unsupported database file version {document.get('version')!r}"
        )
    db = Database()
    # Two passes: create all tables first so FK targets resolve in any order.
    entries = document["tables"]
    pending = list(entries)
    created: set[str] = set()
    while pending:
        progressed = False
        remaining = []
        for entry in pending:
            schema = _schema_from_dict(entry["schema"])
            deps = {
                c.foreign_key.table
                for c in schema.columns
                if c.foreign_key and c.foreign_key.table != schema.name
            }
            if deps <= created:
                db.create_table(schema)
                created.add(schema.name)
                progressed = True
            else:
                remaining.append(entry)
        if not progressed:
            raise SchemaError("circular foreign-key dependencies in database file")
        pending = remaining

    # Rows: insert in dependency order too, using raw table inserts with
    # explicit PKs (the file is trusted to be internally consistent, but
    # we still run FK checks via Database.insert).
    by_name = {entry["schema"]["name"]: entry for entry in entries}
    inserted: set[str] = set()

    def insert_table(name: str) -> None:
        if name in inserted:
            return
        inserted.add(name)
        entry = by_name[name]
        schema = db.table(name).schema
        deps = {
            c.foreign_key.table
            for c in schema.columns
            if c.foreign_key and c.foreign_key.table != name
        }
        for dep in deps:
            insert_table(dep)
        # Self-referencing rows (e.g. augmented images pointing at their
        # source image) must follow their parents, whatever the file order.
        self_fk_columns = [
            c.name
            for c in schema.columns
            if c.foreign_key and c.foreign_key.table == name
        ]
        pk_name = schema.primary_key.name
        rows = list(entry["rows"])
        present: set[int] = set()
        while rows:
            progressed = False
            deferred = []
            for row in rows:
                parents = {
                    row.get(c) for c in self_fk_columns if row.get(c) is not None
                }
                if parents <= present:
                    db.insert(name, row)
                    present.add(row[pk_name])
                    progressed = True
                else:
                    deferred.append(row)
            if not progressed:
                raise SchemaError(
                    f"circular self-references among rows of table {name!r}"
                )
            rows = deferred
        for column in entry.get("indexes", []):
            db.table(name).create_index(column)
        for column in entry.get("ordered_indexes", []):
            db.table(name).create_ordered_index(column)

    for name in by_name:
        insert_table(name)
    return db
