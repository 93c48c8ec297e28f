"""Relational schema definitions, plus the TVDP schema of paper Fig. 2.

The engine is deliberately small — typed columns, primary keys, foreign
keys, uniqueness — because that is what the paper's data model needs:
images linked to FOVs, scene locations, visual features, annotations,
classification types, and keywords.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Storage types; ``JSON`` holds any JSON-serialisable value (used
    for feature vectors and bounding boxes)."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BOOLEAN = "boolean"
    JSON = "json"

    def validate(self, value: object) -> object:
        """Coerce/validate a Python value for this column type."""
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected integer, got {value!r}")
            return value
        if self is ColumnType.REAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected real, got {value!r}")
            return float(value)
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError(f"expected text, got {value!r}")
            return value
        if self is ColumnType.BOOLEAN:
            if not isinstance(value, bool):
                raise SchemaError(f"expected boolean, got {value!r}")
            return value
        return value  # JSON accepts anything serialisable


@dataclass(frozen=True, slots=True)
class ForeignKey:
    """Reference to ``table.column`` enforced on insert and delete."""

    table: str
    column: str


@dataclass(frozen=True, slots=True)
class Column:
    """One column: name, type, and constraints."""

    name: str
    type: ColumnType
    nullable: bool = False
    primary_key: bool = False
    unique: bool = False
    foreign_key: ForeignKey | None = None


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns with exactly one integer primary key."""

    name: str
    columns: tuple[Column, ...]
    _by_name: dict[str, Column] = field(init=False, repr=False, compare=False)
    _pk: Column = field(init=False, repr=False, compare=False)
    #: ``validate_row``'s plan: (name, is_pk, may_be_null, exact type, validate)
    _checks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) != 1:
            raise SchemaError(
                f"table {self.name!r} must have exactly one primary key, has {len(pks)}"
            )
        if pks[0].type is not ColumnType.INTEGER:
            raise SchemaError(f"primary key of {self.name!r} must be INTEGER")
        object.__setattr__(self, "_by_name", {c.name: c for c in self.columns})
        object.__setattr__(self, "_pk", pks[0])
        object.__setattr__(self, "_checks", tuple(
            (c.name, c.primary_key, c.nullable or c.primary_key, _EXACT.get(c.type),
             c.type.validate) for c in self.columns
        ))

    @property
    def primary_key(self) -> Column:
        """The table's primary-key column."""
        return self._pk

    def column(self, name: str) -> Column:
        """Column by name; raises on unknown names."""
        if name not in self._by_name:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._by_name[name]

    def validate_row(self, row: dict) -> dict:
        """Validate and normalise a row dict (PK may be absent — the
        table auto-assigns it)."""
        if not row.keys() <= self._by_name.keys():
            unknown = set(row) - set(self._by_name)
            raise SchemaError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        normalized: dict = {}
        for name, is_pk, may_be_null, exact, validate in self._checks:
            value = row.get(name)
            if value is None:
                if is_pk and name not in row:
                    continue
                if not may_be_null:
                    raise SchemaError(f"{self.name}.{name} is not nullable and missing")
                normalized[name] = None
            elif type(value) is exact:  # what validate would hand back as it is
                normalized[name] = value
            else:
                normalized[name] = validate(value)
        return normalized


#: The one Python type each column type takes unchanged; ``JSON`` takes
#: anything, through ``validate``.
_EXACT = {
    ColumnType.INTEGER: int,
    ColumnType.REAL: float,
    ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool,
}


def tvdp_schema() -> list[TableSchema]:
    """The TVDP database schema (paper Fig. 2).

    Images carry GPS + temporal descriptors inline; FOV, scene location,
    visual features, annotations, and keywords hang off them in
    satellite tables; annotations point at classification types which
    belong to classifications — exactly the paper's entity layout.
    """
    I, R, T, B, J = (
        ColumnType.INTEGER,
        ColumnType.REAL,
        ColumnType.TEXT,
        ColumnType.BOOLEAN,
        ColumnType.JSON,
    )
    return [
        TableSchema(
            "users",
            (
                Column("user_id", I, primary_key=True),
                Column("name", T),
                Column("organization", T, nullable=True),
                Column("role", T),
            ),
        ),
        TableSchema(
            "api_keys",
            (
                Column("key_id", I, primary_key=True),
                Column("user_id", I, foreign_key=ForeignKey("users", "user_id")),
                Column("key", T, unique=True),
                Column("created_at", R),
                Column("active", B),
            ),
        ),
        TableSchema(
            "videos",
            (
                Column("video_id", I, primary_key=True),
                Column("uri", T),
                Column("uploader_id", I, nullable=True, foreign_key=ForeignKey("users", "user_id")),
                Column("description", T, nullable=True),
            ),
        ),
        TableSchema(
            "images",
            (
                Column("image_id", I, primary_key=True),
                Column("uri", T),
                Column("content_hash", T, unique=True),
                Column("lat", R),
                Column("lng", R),
                Column("timestamp_capturing", R),
                Column("timestamp_uploading", R),
                Column("video_id", I, nullable=True, foreign_key=ForeignKey("videos", "video_id")),
                Column("frame_number", I, nullable=True),
                Column("is_augmented", B),
                Column("source_image_id", I, nullable=True, foreign_key=ForeignKey("images", "image_id")),
                Column("augmentation_name", T, nullable=True),
                Column("uploader_id", I, nullable=True, foreign_key=ForeignKey("users", "user_id")),
            ),
        ),
        TableSchema(
            "image_fov",
            (
                Column("fov_id", I, primary_key=True),
                Column("image_id", I, unique=True, foreign_key=ForeignKey("images", "image_id")),
                Column("direction_deg", R),
                Column("angle_deg", R),
                Column("range_m", R),
            ),
        ),
        TableSchema(
            "image_scene_location",
            (
                Column("scene_id", I, primary_key=True),
                Column("image_id", I, unique=True, foreign_key=ForeignKey("images", "image_id")),
                Column("min_lat", R),
                Column("min_lng", R),
                Column("max_lat", R),
                Column("max_lng", R),
            ),
        ),
        TableSchema(
            "image_visual_features",
            (
                Column("feature_id", I, primary_key=True),
                Column("image_id", I, foreign_key=ForeignKey("images", "image_id")),
                Column("extractor_name", T),
                Column("vector", J),
            ),
        ),
        TableSchema(
            "image_content_classification",
            (
                Column("classification_id", I, primary_key=True),
                Column("name", T, unique=True),
                Column("description", T, nullable=True),
                Column("owner_id", I, nullable=True, foreign_key=ForeignKey("users", "user_id")),
            ),
        ),
        TableSchema(
            "image_content_classification_types",
            (
                Column("type_id", I, primary_key=True),
                Column(
                    "classification_id",
                    I,
                    foreign_key=ForeignKey("image_content_classification", "classification_id"),
                ),
                Column("label", T),
            ),
        ),
        TableSchema(
            "image_content_annotation",
            (
                Column("annotation_id", I, primary_key=True),
                Column("image_id", I, foreign_key=ForeignKey("images", "image_id")),
                Column(
                    "type_id",
                    I,
                    foreign_key=ForeignKey("image_content_classification_types", "type_id"),
                ),
                Column("confidence", R),
                Column("source", T),  # 'human' or 'machine'
                Column("bbox", J, nullable=True),
                Column("annotator", T, nullable=True),
                Column("created_at", R),
            ),
        ),
        TableSchema(
            "image_manual_keywords",
            (
                Column("keyword_id", I, primary_key=True),
                Column("image_id", I, foreign_key=ForeignKey("images", "image_id")),
                Column("keyword", T),
            ),
        ),
    ]
