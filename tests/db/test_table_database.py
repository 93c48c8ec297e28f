"""Tests for the table engine and the FK-enforcing database."""

import pytest

from repro.db import Column, ColumnType, Database, ForeignKey, Table, TableSchema
from repro.errors import IntegrityError, SchemaError

I, R, T, B = ColumnType.INTEGER, ColumnType.REAL, ColumnType.TEXT, ColumnType.BOOLEAN


def things_schema():
    return TableSchema(
        "things",
        (
            Column("id", I, primary_key=True),
            Column("name", T),
            Column("tag", T, nullable=True, unique=True),
            Column("size", R, nullable=True),
        ),
    )


class TestTable:
    def setup_method(self):
        self.table = Table(things_schema())

    def test_autoincrement(self):
        assert self.table.insert({"name": "a"}) == 1
        assert self.table.insert({"name": "b"}) == 2
        assert len(self.table) == 2

    def test_explicit_pk_respected(self):
        assert self.table.insert({"id": 10, "name": "a"}) == 10
        assert self.table.insert({"name": "b"}) == 11

    def test_duplicate_pk_raises(self):
        self.table.insert({"id": 5, "name": "a"})
        with pytest.raises(IntegrityError):
            self.table.insert({"id": 5, "name": "b"})

    def test_get_returns_copy(self):
        pk = self.table.insert({"name": "a"})
        row = self.table.get(pk)
        row["name"] = "mutated"
        assert self.table.get(pk)["name"] == "a"

    def test_get_missing_raises(self):
        with pytest.raises(IntegrityError):
            self.table.get(99)

    def test_unique_constraint(self):
        self.table.insert({"name": "a", "tag": "x"})
        with pytest.raises(IntegrityError):
            self.table.insert({"name": "b", "tag": "x"})
        # Null tags don't collide.
        self.table.insert({"name": "c"})
        self.table.insert({"name": "d"})

    def test_update(self):
        pk = self.table.insert({"name": "a", "size": 1.0})
        self.table.update(pk, {"size": 2.0})
        assert self.table.get(pk)["size"] == 2.0

    def test_update_pk_forbidden(self):
        pk = self.table.insert({"name": "a"})
        with pytest.raises(SchemaError):
            self.table.update(pk, {"id": 9})

    def test_update_unique_to_own_value_ok(self):
        pk = self.table.insert({"name": "a", "tag": "t"})
        self.table.update(pk, {"name": "renamed"})
        assert self.table.get(pk)["tag"] == "t"

    def test_update_unique_collision_raises(self):
        self.table.insert({"name": "a", "tag": "x"})
        pk = self.table.insert({"name": "b", "tag": "y"})
        with pytest.raises(IntegrityError):
            self.table.update(pk, {"tag": "x"})

    def test_delete_frees_unique_value(self):
        pk = self.table.insert({"name": "a", "tag": "x"})
        self.table.delete(pk)
        self.table.insert({"name": "b", "tag": "x"})

    def test_delete_missing_raises(self):
        with pytest.raises(IntegrityError):
            self.table.delete(42)

    def test_find_without_index(self):
        self.table.insert({"name": "a"})
        self.table.insert({"name": "a"})
        self.table.insert({"name": "b"})
        assert len(self.table.find("name", "a")) == 2

    def test_find_with_index_matches_scan(self):
        for i in range(20):
            self.table.insert({"name": f"n{i % 3}"})
        without = self.table.find("name", "n1")
        self.table.create_index("name")
        with_index = self.table.find("name", "n1")
        assert without == with_index

    def test_index_maintained_across_mutations(self):
        self.table.create_index("name")
        pk = self.table.insert({"name": "a"})
        assert len(self.table.find("name", "a")) == 1
        self.table.update(pk, {"name": "b"})
        assert self.table.find("name", "a") == []
        assert len(self.table.find("name", "b")) == 1
        self.table.delete(pk)
        assert self.table.find("name", "b") == []

    def test_scan_with_predicate(self):
        for size in (1.0, 2.0, 3.0):
            self.table.insert({"name": "x", "size": size})
        big = list(self.table.scan(lambda r: (r["size"] or 0) > 1.5))
        assert len(big) == 2


class TestOrderedIndex:
    def stamped(self):
        table = Table(
            TableSchema(
                "shots",
                (
                    Column("id", ColumnType.INTEGER, primary_key=True),
                    Column("at", ColumnType.REAL, nullable=True),
                ),
            )
        )
        for at in (5.0, 1.0, None, 3.0, float("nan"), 3.0):
            table.insert({"at": at})
        return table

    def test_range_is_inclusive_and_ordered_by_value_then_pk(self):
        table = self.stamped()
        table.create_ordered_index("at")
        assert table.keys_in_range("at", 3.0, 5.0) == [4, 6, 1]
        assert table.keys_in_range("at", 3.5, 4.5) == []

    def test_open_ends_and_unplaceable_values(self):
        """None and NaN lie in no window, open or not."""
        table = self.stamped()
        table.create_ordered_index("at")
        assert table.keys_in_range("at") == [2, 4, 6, 1]
        assert table.keys_in_range("at", None, 3.0) == [2, 4, 6]
        assert table.keys_in_range("at", 3.0, None) == [4, 6, 1]
        table.update(3, {"at": 2.0})  # None -> a value
        table.update(1, {"at": None})  # a value -> None
        table.delete(5)  # the NaN row was never in the index
        assert table.keys_in_range("at") == [2, 3, 4, 6]

    def test_range_needs_the_index(self):
        with pytest.raises(SchemaError):
            self.stamped().keys_in_range("at", 0.0, 1.0)
        with pytest.raises(SchemaError):
            self.stamped().create_ordered_index("nope")

    def test_charges_rows_returned_not_rows_stored(self):
        from repro.obs.accounting import ledger_scope
        from repro.obs.record import RecordStore

        table = self.stamped()
        table.create_ordered_index("at")
        with ledger_scope(table=RecordStore(), principal="t") as ledger:
            table.keys_in_range("at", 0.0, 1.0)
        assert ledger.charges["rows_scanned"] == 1


class TestDatabase:
    def make_db(self):
        db = Database()
        db.create_table(
            TableSchema(
                "owners",
                (Column("owner_id", I, primary_key=True), Column("name", T)),
            )
        )
        db.create_table(
            TableSchema(
                "pets",
                (
                    Column("pet_id", I, primary_key=True),
                    Column("name", T),
                    Column(
                        "owner_id", I, foreign_key=ForeignKey("owners", "owner_id")
                    ),
                ),
            )
        )
        return db

    def test_fk_enforced_on_insert(self):
        db = self.make_db()
        with pytest.raises(IntegrityError):
            db.insert("pets", {"name": "rex", "owner_id": 1})
        owner = db.insert("owners", {"name": "ann"})
        db.insert("pets", {"name": "rex", "owner_id": owner})

    def test_a_row_is_validated_once_through_either_entry_point(self, monkeypatch):
        db = self.make_db()
        calls = []
        validate = TableSchema.validate_row

        def counting(schema, row):
            calls.append(schema.name)
            return validate(schema, row)

        monkeypatch.setattr(TableSchema, "validate_row", counting)
        owner = db.insert("owners", {"name": "ann"})
        db.insert("pets", {"name": "rex", "owner_id": owner})
        assert calls == ["owners", "pets"]
        db.table("pets").insert({"name": "tom", "owner_id": owner})
        assert calls == ["owners", "pets", "pets"]
        for malformed in ({"name": 7, "owner_id": owner}, {"owner_id": owner}, {"nme": "x"}):
            with pytest.raises(SchemaError):
                db.insert("pets", malformed)
            with pytest.raises(SchemaError):
                db.table("pets").insert(malformed)
        assert len(db.table("pets")) == 2

    def test_nullable_fk_allowed(self):
        db = Database()
        db.create_table(
            TableSchema(
                "nodes",
                (
                    Column("node_id", I, primary_key=True),
                    Column(
                        "parent_id",
                        I,
                        nullable=True,
                        foreign_key=ForeignKey("nodes", "node_id"),
                    ),
                ),
            )
        )
        root = db.insert("nodes", {"parent_id": None})
        db.insert("nodes", {"parent_id": root})

    def test_delete_restricted(self):
        db = self.make_db()
        owner = db.insert("owners", {"name": "ann"})
        db.insert("pets", {"name": "rex", "owner_id": owner})
        with pytest.raises(IntegrityError):
            db.delete("owners", owner)

    def test_delete_after_children_removed(self):
        db = self.make_db()
        owner = db.insert("owners", {"name": "ann"})
        pet = db.insert("pets", {"name": "rex", "owner_id": owner})
        db.delete("pets", pet)
        db.delete("owners", owner)
        assert db.row_counts() == {"owners": 0, "pets": 0}

    def test_delete_cascade(self):
        db = self.make_db()
        owner = db.insert("owners", {"name": "ann"})
        db.insert("pets", {"name": "rex", "owner_id": owner})
        db.insert("pets", {"name": "fido", "owner_id": owner})
        removed = db.delete_cascade("owners", owner)
        assert removed == 3
        assert db.row_counts() == {"owners": 0, "pets": 0}

    def test_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            Database().table("ghost")

    def test_duplicate_table_raises(self):
        db = self.make_db()
        with pytest.raises(SchemaError):
            db.create_table(
                TableSchema("owners", (Column("x", I, primary_key=True),))
            )

    def test_fk_to_missing_table_raises(self):
        with pytest.raises(SchemaError):
            Database().create_table(
                TableSchema(
                    "pets",
                    (
                        Column("pet_id", I, primary_key=True),
                        Column("o", I, foreign_key=ForeignKey("owners", "owner_id")),
                    ),
                )
            )

    def test_tvdp_database_builds(self):
        db = Database.tvdp()
        assert "images" in db.table_names()
        user = db.insert("users", {"name": "usc", "role": "researcher"})
        image = db.insert(
            "images",
            {
                "uri": "img://1",
                "content_hash": "abc",
                "lat": 34.0,
                "lng": -118.0,
                "timestamp_capturing": 1.0,
                "timestamp_uploading": 2.0,
                "is_augmented": False,
                "uploader_id": user,
            },
        )
        db.insert(
            "image_fov",
            {"image_id": image, "direction_deg": 90.0, "angle_deg": 60.0, "range_m": 100.0},
        )
        with pytest.raises(IntegrityError):
            db.delete("images", image)  # FOV references it

    def test_every_committed_row_write_moves_the_version_once(self):
        db = self.make_db()
        assert db.version == 0
        owner = db.insert("owners", {"name": "ann"})
        pet = db.table("pets").insert({"name": "rex", "owner_id": owner})
        db.table("pets").update(pet, {"name": "tom"})
        assert db.version == 3
        db.delete("pets", pet)
        db.insert("pets", {"name": "fido", "owner_id": owner})
        assert db.delete_cascade("owners", owner) == 2
        assert db.version == 7
        # A write that is refused commits nothing and moves nothing.
        for refused in (
            lambda: db.insert("pets", {"name": "rex", "owner_id": 99}),
            lambda: db.table("pets").update(99, {"name": "x"}),
            lambda: db.delete("owners", 99),
        ):
            with pytest.raises(IntegrityError):
                refused()
        db.row_counts()
        db.table("pets").all_rows()
        assert db.version == 7  # reads move nothing either
        db.bump()
        assert db.version == 8
