"""One catalog slice: a relational database plus the index suite over it.

The paper's Access service is one data model (the Fig. 2 schema) plus
one index suite answering every query family.  :class:`CatalogSlice`
is that pairing — an inverted index, an LSH index per extractor and the
columns that stand in for the paper's two trees — and the only owner of
it: the platform holds one over the whole catalog.  A geo-tile shard
(:mod:`repro.shard`) is a row set over it, not a copy: every scan a
query family runs takes an optional ``owns`` — a map from an id column
to a mask, the shard's — and then examines, charges and ranks only the
rows it keeps, before any per-row work.  The same scans therefore
answer a query on the platform and on any partition of it, which is
what keeps sharded answers equal to serial ones.

A slice is filled two ways, by the same two methods:

* incrementally — ``upload_image`` calls :meth:`CatalogSlice.index_image`
  and ``extract_features`` calls :meth:`CatalogSlice.index_vector`;
* from rows — :meth:`CatalogSlice.rebuild` replays a database in
  ascending image id (the platform's upload order).

A write fills columns only: the five numbers of every image's FOV
sector (camera point, direction, angle, range) and its MBR, camera point
and LSH row of every vector, and per label the columns a categorical
query masks and groups (:meth:`CatalogSlice.index_annotation`, called
by ``annotate`` and by the rebuild).  Every spatial read — camera mode,
scene mode, the fused spatial-visual hybrid, and the overlapping views
scene localisation asks for — is one vectorised predicate over those
columns, then the exact sector predicate of :mod:`repro.geo.fov` on
the few survivors' numbers (DESIGN.md §6 has the scan-vs-tree table).
The slice holds none of the paper's trees: :mod:`repro.index` keeps
them for the figures, the ablation and the tests' oracles.

Each of the four index writes bumps the database's write version
(:attr:`Database.version <repro.db.database.Database.version>`) once it
is applied, on top of the bump of the row write before it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.queries import SpatialQuery, TemporalQuery
from repro.db.database import Database
from repro.errors import QueryError
from repro.geo.fov import FieldOfView, sector_contains, sector_meets_box, sectors_overlap
from repro.geo.point import BoundingBox
from repro.index.columns import Columns, ColumnView, PointColumns, owned_rows
from repro.index.inverted import InvertedIndex
from repro.index.lsh import LSHIndex
from repro.index.ordering import pairs

#: The ``source`` column of an annotation, as the float its column holds.
_SOURCE_CODES = {"human": 0.0, "machine": 1.0}


class CatalogSlice:
    """A :class:`~repro.db.database.Database` and the indexes derived
    from its rows: ``text`` over keywords, an LSH index per feature
    extractor, and the columns (:mod:`repro.index.columns`) every
    spatial query scans."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.text = InvertedIndex()
        # Guards the per-extractor registries and the columns; each
        # index carries its own lock for its contents.
        self._lock = threading.Lock()
        self._lsh: dict[str, LSHIndex] = {}
        # Camera point, viewing direction, angle and range (the sector's
        # five numbers), then FOV MBR (min_lat, min_lng, max_lat,
        # max_lng) of every image with an FOV.
        self._cameras = PointColumns(extra=7)
        # Per extractor, the camera point of every indexed vector and
        # the row the LSH index gave that vector (exact in a float
        # column), so the vectors themselves are held once.
        self._vector_points: dict[str, PointColumns] = {}
        # Per annotation type id, (image id; confidence, source code) of
        # every annotation carrying that label, in annotation order.
        self._labels: dict[int, Columns] = {}

    # -- indexing -------------------------------------------------------------

    def index_image(
        self, image_id: int, fov: FieldOfView | None, keywords: tuple | list
    ) -> None:
        """Index one stored image: its FOV (augmented images have none)
        and its keywords as one document, joined in insertion order."""
        if keywords:
            self.text.add(image_id, " ".join(keywords))
        if fov is not None:
            box = fov.mbr()
            with self._lock:
                self._cameras.append(
                    image_id, *fov.sector, box.min_lat, box.min_lng, box.max_lat, box.max_lng
                )
        self.db.bump()

    def index_annotation(
        self, image_id: int, type_id: int, confidence: float, source: str
    ) -> None:
        """Index one stored annotation under its label's type id."""
        with self._lock:
            labelled = self._labels.get(type_id)
            if labelled is None:
                labelled = self._labels[type_id] = Columns(2)
            labelled.append(image_id, confidence, _SOURCE_CODES[source])
        self.db.bump()

    def add_extractor(self, name: str, dimension: int) -> None:
        """Give ``name`` its LSH index and point columns unless it has them."""
        with self._lock:
            if name in self._lsh:
                return
            self._vector_points[name] = PointColumns(extra=1)
            self._lsh[name] = LSHIndex(dimension=dimension)
        self.db.bump()

    def index_vector(self, name: str, image_id: int, vector: np.ndarray) -> None:
        """Index one stored feature vector under extractor ``name``,
        at the image's camera point for the fused hybrid."""
        row = self.db.table("images").get(image_id)
        # The LSH index says where it put the vector; a point is listed
        # only once its vector is there to rank.
        vector_row = self.lsh(name).insert(image_id, vector)
        with self._lock:
            self._vector_points[name].append(
                image_id, row["lat"], row["lng"], vector_row
            )
        self.db.bump()

    @classmethod
    def rebuild(cls, db: Database) -> "CatalogSlice":
        """The slice over ``db``, every index rebuilt from its rows in
        ascending image id; its extractors are those the stored vectors
        name."""
        built: CatalogSlice = cls(db)
        fov_rows = {row["image_id"]: row for row in db.table("image_fov").all_rows()}
        keywords: dict[int, list[str]] = {}
        for row in db.table("image_manual_keywords").all_rows():
            keywords.setdefault(row["image_id"], []).append(row["keyword"])
        for row in db.table("images").all_rows():
            fov_row = fov_rows.get(row["image_id"])
            fov = None if fov_row is None else FieldOfView.from_dict({**fov_row, **row})
            built.index_image(row["image_id"], fov, keywords.get(row["image_id"], ()))
        for row in db.table("image_content_annotation").all_rows():
            built.index_annotation(
                row["image_id"], row["type_id"], row["confidence"], row["source"]
            )
        feature_rows = db.table("image_visual_features").all_rows()
        for row in sorted(feature_rows, key=lambda row: row["image_id"]):
            vector = np.array(row["vector"], dtype=np.float64)
            built.add_extractor(row["extractor_name"], vector.shape[0])
            built.index_vector(row["extractor_name"], row["image_id"], vector)
        return built

    # -- index access ---------------------------------------------------------

    def lsh(self, name: str) -> LSHIndex:
        """The LSH index of extractor ``name``."""
        with self._lock:
            index = self._lsh.get(name)
        if index is None:
            raise QueryError(
                f"no features extracted yet for {name!r}; call extract_features first"
            )
        return index

    def visual_indexes(self) -> dict[str, LSHIndex]:
        """Live LSH indexes by extractor name (a snapshot of the registry)."""
        with self._lock:
            return dict(self._lsh)

    def fov_count(self) -> int:
        """Images indexed with an FOV."""
        with self._lock:
            return len(self._cameras)

    def id_columns(self) -> tuple[ColumnView, dict, dict, dict]:
        """What a partition reads, as of now: the camera columns (the
        FOV MBRs among them), and the image ids of each term's
        documents, of each label's annotations and of each extractor's
        vectors, as ``{key: id column}``."""
        terms = self.text.term_ids()
        with self._lock:
            return (
                self._cameras.view(),
                terms,
                {type_id: columns.live()[0] for type_id, columns in self._labels.items()},
                {name: columns.live()[0] for name, columns in self._vector_points.items()},
            )

    # -- unscored scans -------------------------------------------------------

    def spatial_ids(self, query: SpatialQuery, owns=None) -> np.ndarray:
        """Ascending ids (an int64 column) of this slice's images — those
        ``owns`` keeps, if given — matching ``query``:
        camera-point-inside in camera mode, FOV-depicts in scene mode —
        one scan of the camera columns either way, then in scene mode
        the exact sector predicate on the rows the scan let through."""
        region = query.bounding_region()
        with self._lock:
            cameras = self._cameras.view()
        if query.mode == "camera":
            rows = cameras.rows_in(region, owns)
        else:
            rows = _mbr_rows(cameras, region, owns)
        if query.direction_deg is not None:
            # geodesy.angular_difference_deg, on a column.
            off = np.abs(cameras.extra[0][rows] - query.direction_deg) % 360.0
            rows = rows[np.minimum(off, 360.0 - off) <= query.direction_tolerance_deg]
        if query.mode == "scene":
            # A camera inside the region already makes intersects_box
            # true, so camera mode has no refine; scene mode does.
            at = query.point if query.radius_m == 0.0 else None
            kept = [
                sector_contains(*five, at.lat, at.lng) if at else sector_meets_box(*five, region)
                for five in _sectors(cameras, rows)
            ]
            rows = rows[np.array(kept, dtype=bool)]
        return np.sort(cameras.ids[rows])

    def overlapping_ids(self, fov: FieldOfView) -> np.ndarray:
        """Ascending ids (an int64 column) of the images whose FOV
        overlaps ``fov`` (:meth:`FieldOfView.overlaps_fov`): one scan of
        the MBR columns against ``fov.mbr()``, then that refine on the
        rows the scan let through."""
        with self._lock:
            cameras = self._cameras.view()
        rows = _mbr_rows(cameras, fov.mbr())
        kept = [sectors_overlap(sector, fov.sector) for sector in _sectors(cameras, rows)]
        return np.sort(cameras.ids[rows[np.array(kept, dtype=bool)]])

    def spatial_visual_topk(
        self, name: str, region: BoundingBox, vector: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """:meth:`spatial_visual_nearest` as ``(image id, distance)`` pairs."""
        return pairs(*self.spatial_visual_nearest(name, region, vector, k))

    def spatial_visual_nearest(
        self, name: str, region: BoundingBox, vector: np.ndarray, k: int, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The image ids and feature distances (two columns) of the
        ``k`` images most similar to ``vector`` under extractor ``name``
        among those whose camera lies inside ``region`` (and that
        ``owns`` keeps, if given), nearest first
        in canonical order — ``VisualRTree.spatial_visual_knn``'s
        answer, by filtering the point columns and ranking only the
        survivors' vectors (:meth:`LSHIndex.nearest_columns`)."""
        lsh = self.lsh(name)
        with self._lock:
            points = self._vector_points[name].view()
        vector_rows = points.extra[0][points.rows_in(region, owns)].astype(np.intp)
        return lsh.nearest_columns(vector, k, vector_rows)

    def visual_nearest(
        self, name: str, vector: np.ndarray, k: int, rows: np.ndarray | None, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest to ``vector`` under extractor ``name`` as
        ``(ids, distances)`` columns in canonical order: among the LSH
        buffer ``rows`` (a query's hash candidates), or — ``None`` — by
        the exhaustive scan; either way over the rows ``owns`` keeps."""
        lsh = self.lsh(name)
        if rows is None:
            return lsh.scan_topk(vector, k, owns)
        return lsh.nearest_columns(vector, k, rows, owns)

    def text_scores(
        self, terms: list[str], match: str, owns=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``InvertedIndex.scores`` of the keyword index: the documents
        ``owns`` keeps, scored with the whole catalog's idf."""
        return self.text.scores(terms, match, owns)

    def temporal_ids(self, query: TemporalQuery, owns=None) -> np.ndarray:
        """Ascending ids (an int64 column) of this slice's images (those
        ``owns`` keeps) inside the time window, from the ordered index on
        ``query.field``."""
        return self.db.table("images").sorted_keys_in_range(
            query.field, query.start, query.end, owns
        )

    def best_confidence(
        self,
        type_ids: tuple | list,
        min_confidence: float = 0.0,
        source: str | None = None,
        owns=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(image ids ascending, best confidence of each)`` over this
        slice's annotations (those ``owns`` keeps) of any of the resolved
        ``type_ids`` (labels are resolved by whoever holds the catalog; a
        slice never looks a name up), from the label columns: no row is
        read."""
        # The empty block first, so that no label at all still concatenates.
        blocks = [_NO_ANNOTATIONS.live()]
        with self._lock:
            blocks += [
                self._labels[type_id].live()
                for type_id in dict.fromkeys(type_ids)
                if type_id in self._labels
            ]
        ids = np.concatenate([ids for ids, _ in blocks])
        confidence, source_code = np.concatenate([values for _, values in blocks], axis=1)
        mine = owned_rows(ids, owns)
        keep = confidence >= min_confidence
        if mine is not None:
            keep &= mine
        if source is not None:
            # NaN equals nothing: an unknown source matches no annotation.
            keep &= source_code == _SOURCE_CODES.get(source, np.nan)
        return best_per_image(ids[keep], confidence[keep])

    def annotation_count(self, type_id: int) -> int:
        """Annotations carrying the label ``type_id`` in this slice."""
        with self._lock:
            return len(self._labels.get(type_id, ()))


_NO_ANNOTATIONS = Columns(2)


def _mbr_rows(cameras: ColumnView, box: BoundingBox, owns=None) -> np.ndarray:
    """Positions of the camera rows whose FOV MBR intersects ``box``
    (:meth:`BoundingBox.intersects`, on columns) — one scan, of the rows
    ``owns`` keeps if given."""
    mine = owned_rows(cameras.ids, owns)
    min_lat, min_lng, max_lat, max_lng = cameras.extra[3:]
    hit = (min_lat <= box.max_lat) & (max_lat >= box.min_lat)
    hit &= (min_lng <= box.max_lng) & (max_lng >= box.min_lng)
    return np.flatnonzero(hit if mine is None else hit & mine)


def _sectors(cameras: ColumnView, rows: np.ndarray) -> list:
    """The five numbers (:attr:`FieldOfView.sector`) of each of a handful of ``rows``."""
    items = [column.item for column in (cameras.lat, cameras.lng, *cameras.extra[:3])]
    return [[item(r) for item in items] for r in rows.tolist()]


def best_per_image(
    ids: np.ndarray, confidence: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group-max: the distinct ``ids`` ascending and, beside each, the
    largest of its ``confidence`` values.  Sorted by (id, confidence),
    the last row of each id's run holds its best."""
    order = np.lexsort((confidence, ids))
    ids, confidence = ids[order], confidence[order]
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    # + 0.0 turns a stored -0.0 into the 0.0 an unranked hit scores.
    return ids[last], confidence[last] + 0.0

