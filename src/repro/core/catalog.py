"""Classification catalog: named label vocabularies shared by users.

The paper's model allows "multiple annotations in correspondence to
multiple visual content classifications designed for different smart
city applications" — street cleanliness, graffiti, road damage, and so
on all coexist over the same images.  The catalog manages those
vocabularies in the ``image_content_classification(_types)`` tables.
"""

from __future__ import annotations

import threading

from repro.errors import QueryError, SchemaError
from repro.db.database import Database
from repro.obs.accounting import charge


class ClassificationCatalog:
    """Registry of classification schemes backed by the TVDP database."""

    def __init__(self, db: Database) -> None:
        self._db = db
        # (both tables' write counts, {(name, label): type_id}), one tuple.
        self._labels: tuple[tuple[int, int], dict[tuple[str, str], int]] = ((-1, -1), {})
        self._lock = threading.Lock()

    def define(
        self,
        name: str,
        labels: list[str],
        description: str = "",
        owner_id: int | None = None,
    ) -> int:
        """Create a classification with its label set; returns its id."""
        if not labels:
            raise QueryError(f"classification {name!r} needs at least one label")
        if len(set(labels)) != len(labels):
            raise QueryError(f"duplicate labels in classification {name!r}")
        classification_id = self._db.insert(
            "image_content_classification",
            {"name": name, "description": description or None, "owner_id": owner_id},
        )
        for label in labels:
            self._db.insert(
                "image_content_classification_types",
                {"classification_id": classification_id, "label": label},
            )
        return classification_id

    def classification_id(self, name: str) -> int:
        """Id of a classification by name."""
        charge("catalog_lookups", 1)
        rows = self._db.table("image_content_classification").find("name", name)
        if not rows:
            raise QueryError(f"unknown classification {name!r}")
        return rows[0]["classification_id"]

    def labels(self, name: str) -> list[str]:
        """Labels of a classification, in definition order."""
        charge("catalog_lookups", 1)
        cid = self.classification_id(name)
        rows = self._db.table("image_content_classification_types").find(
            "classification_id", cid
        )
        return [row["label"] for row in rows]

    def type_id(self, name: str, label: str) -> int:
        """Id of one (classification, label) pair: a map lookup."""
        charge("catalog_lookups", 1)
        type_id = self._label_map().get((name, label))
        if type_id is None:
            self.classification_id(name)  # an unknown classification says so
            raise QueryError(f"classification {name!r} has no label {label!r}")
        return type_id

    def _label_map(self) -> dict[tuple[str, str], int]:
        """``(classification, label) -> type_id``, rebuilt only once either
        catalog table was written (not on ``db.version``: uploads move it)."""
        classes = self._db.table("image_content_classification")
        types = self._db.table("image_content_classification_types")
        stamp = (classes.writes, types.writes)
        seen, labels = self._labels
        if seen != stamp:
            with self._lock:
                names = {row["classification_id"]: row["name"] for row in classes.all_rows()}
                labels = {
                    (names[row["classification_id"]], row["label"]): row["type_id"]
                    for row in reversed(types.all_rows())  # the first of equal labels wins
                }
                self._labels = (stamp, labels)
        return labels

    def replicate_into(self, db: Database) -> None:
        """Copy every classification and its label rows into ``db`` with
        primary keys preserved.

        Shard databases replicate the catalog (it is tiny and read-only
        at query time) so a shard resolves exactly the same type ids as
        the coordinator — categorical tasks ship resolved type ids, and
        annotation rows sliced into the shard keep their FK targets.
        """
        for row in self._db.table("image_content_classification").all_rows():
            db.insert("image_content_classification", dict(row))
        for row in self._db.table("image_content_classification_types").all_rows():
            db.insert("image_content_classification_types", dict(row))

    def names(self) -> list[str]:
        """All classification names, sorted."""
        return sorted(
            row["name"]
            for row in self._db.table("image_content_classification").all_rows()
        )

    def label_of_type(self, type_id: int) -> tuple[str, str]:
        """Inverse lookup: ``(classification_name, label)`` of a type id."""
        charge("catalog_lookups", 1)
        try:
            type_row = self._db.table("image_content_classification_types").get(type_id)
        except SchemaError as exc:
            raise QueryError(f"unknown type id {type_id}") from exc
        classification = self._db.table("image_content_classification").get(
            type_row["classification_id"]
        )
        return classification["name"], type_row["label"]
