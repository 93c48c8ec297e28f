"""One catalog slice: a relational database plus the index suite over it.

The paper's Access service is one data model (the Fig. 2 schema) plus
one index suite — Oriented R-tree, inverted index, LSH, Visual R*-tree.
:class:`CatalogSlice` is that pairing, and the only owner of it: the
platform holds one over the whole catalog.  A geo-tile shard
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
  ascending image id (the platform's upload order, so tree shapes are a
  deterministic function of the rows).

Neither touches a tree.  A write fills columns only: camera point,
viewing direction and FOV MBR of every image (the ``FieldOfView`` kept
beside its row), camera point and LSH row of every vector, and per
label the columns a categorical query masks and groups
(:meth:`CatalogSlice.index_annotation`, called by ``annotate`` and by
the rebuild).  Every served spatial query — camera mode, scene mode,
the fused spatial-visual hybrid — is one vectorised predicate over
those columns, scene mode followed by the exact FOV refine of the few
survivors (DESIGN.md §6 has the scan-vs-tree table).  The paper's two
trees are *caught up on read*: :attr:`CatalogSlice.spatial` and
:meth:`CatalogSlice.hybrid_indexes` insert the rows written since the
tree was last asked for, in write order, and return it — so a tree
costs the reader that wants it (localisation, panorama selection, the
figure benchmarks, the tests' oracles), never the upload.

Each of the four index writes bumps the database's write version
(:attr:`Database.version <repro.db.database.Database.version>`) once it
is applied, on top of the bump of the row write before it; a tree's
catch-up is a read and bumps nothing.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.queries import SpatialQuery, TemporalQuery
from repro.db.database import Database
from repro.errors import QueryError
from repro.geo.fov import FieldOfView
from repro.geo.point import BoundingBox, GeoPoint
from repro.index.columns import Columns, PointColumns, owned_rows
from repro.index.hybrid import VisualRTree
from repro.index.inverted import InvertedIndex
from repro.index.lsh import LSHIndex
from repro.index.ordering import pairs
from repro.index.oriented_rtree import OrientedRTree

#: The ``source`` column of an annotation, as the float its column holds.
_SOURCE_CODES = {"human": 0.0, "machine": 1.0}


class CatalogSlice:
    """A :class:`~repro.db.database.Database` and the indexes derived
    from its rows: ``text`` over keywords, an LSH index per feature
    extractor, and the columns (:mod:`repro.index.columns`) every
    spatial query scans — with ``spatial`` over FOVs and a Visual
    R-tree per extractor built from those columns when asked for."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.text = InvertedIndex()
        # Guards the per-extractor registries, the columns and the
        # trees' catch-up; each index carries its own lock for its
        # contents (taken inside this one, never the other way round).
        self._lock = threading.Lock()
        self._spatial = OrientedRTree()
        self._lsh: dict[str, LSHIndex] = {}
        self._hybrid: dict[str, VisualRTree] = {}
        # Camera point, viewing direction and FOV MBR (min_lat, min_lng,
        # max_lat, max_lng) of every image with an FOV; the FOV itself
        # at the same row, for the refine.
        self._cameras = PointColumns(extra=5)
        self._fovs: list[FieldOfView] = []
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
            camera, box = fov.camera, fov.mbr()
            with self._lock:
                self._cameras.append(
                    image_id, camera.lat, camera.lng, fov.direction_deg,
                    box.min_lat, box.min_lng, box.max_lat, box.max_lng,
                )
                self._fovs.append(fov)
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
        """Give ``name`` its LSH + Visual R-tree pair unless it has one."""
        with self._lock:
            if name in self._lsh:
                return
            self._vector_points[name] = PointColumns(extra=1)
            self._lsh[name] = LSHIndex(dimension=dimension)
            self._hybrid[name] = VisualRTree(dimension=dimension)
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
            fov = None
            if fov_row is not None:
                fov = FieldOfView(
                    camera=GeoPoint(row["lat"], row["lng"]),
                    direction_deg=fov_row["direction_deg"],
                    angle_deg=fov_row["angle_deg"],
                    range_m=fov_row["range_m"],
                )
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
        return self._registered(self._lsh, name)

    @property
    def spatial(self) -> OrientedRTree:
        """The Oriented R-tree over every indexed FOV, caught up with
        the columns: the rows written since it was last asked for are
        inserted now, in write order, by whoever asks."""
        with self._lock:
            ids, _ = self._cameras.live()
            first = len(self._spatial)
            for item, fov in zip(ids[first:].tolist(), self._fovs[first:]):
                self._spatial.insert(item, fov)
        return self._spatial

    def _catch_up(self, name: str, tree: VisualRTree) -> None:
        """Insert the vectors listed since ``len(tree)``, each at its
        camera point, from the LSH buffer rows the point columns name.
        The caller holds ``_lock``, so every row is inserted once."""
        ids, values = self._vector_points[name].live()
        first = len(tree)
        if first < len(ids):
            lat, lng, vector_row = values[:, first:]
            vectors = self._lsh[name].vectors_at(vector_row.astype(np.intp))
            for item, at_lat, at_lng, vector in zip(
                ids[first:].tolist(), lat.tolist(), lng.tolist(), vectors
            ):
                tree.insert(item, GeoPoint(at_lat, at_lng), vector)

    def _registered(self, registry: dict, name: str):
        with self._lock:
            index = registry.get(name)
        if index is None:
            raise QueryError(
                f"no features extracted yet for {name!r}; call extract_features first"
            )
        return index

    def visual_indexes(self) -> dict[str, LSHIndex]:
        """Live LSH indexes by extractor name (a snapshot of the registry)."""
        with self._lock:
            return dict(self._lsh)

    def hybrid_indexes(self) -> dict[str, VisualRTree]:
        """Visual R-trees by extractor name, each caught up."""
        with self._lock:
            for name, tree in self._hybrid.items():
                self._catch_up(name, tree)
            return dict(self._hybrid)

    def fov_count(self) -> int:
        """Images indexed with an FOV."""
        with self._lock:
            return len(self._cameras)

    def fov_bounds(self, owns) -> BoundingBox | None:
        """Union MBR of every indexed FOV ``owns`` keeps (``None``
        without one) — the extent the shard planner prunes against, from
        the MBR columns."""
        with self._lock:
            cameras = self._cameras.view()
        mbrs = np.array(cameras.extra[1:])[:, owns(cameras.ids)]
        if not mbrs.shape[1]:
            return None
        return BoundingBox(*mbrs[:2].min(axis=1).tolist(), *mbrs[2:].max(axis=1).tolist())

    def owned_counts(self, owns) -> tuple[dict, dict]:
        """``({type id: annotations}, {extractor: vectors})`` among the
        rows ``owns`` keeps, for labels and extractors with any."""
        with self._lock:
            blocks = [
                {key: columns.live()[0] for key, columns in registry.items()}
                for registry in (self._labels, self._vector_points)
            ]
        labels, vectors = (
            {key: n for key, ids in block.items() if (n := int(np.count_nonzero(owns(ids))))}
            for block in blocks
        )
        return labels, vectors

    # -- unscored scans -------------------------------------------------------

    def spatial_ids(self, query: SpatialQuery, owns=None) -> np.ndarray:
        """Ascending ids (an int64 column) of this slice's images — those
        ``owns`` keeps, if given — matching ``query``:
        camera-point-inside in camera mode, FOV-depicts in scene mode —
        one scan of the camera columns either way, then in scene mode
        the exact FOV predicate on the rows the scan let through."""
        region = query.bounding_region()
        with self._lock:
            cameras, fovs = self._cameras.view(), self._fovs
        if query.mode == "camera":
            rows = cameras.rows_in(region, owns)
        else:
            mine = owned_rows(cameras.ids, owns)
            _, min_lat, min_lng, max_lat, max_lng = cameras.extra
            # BoundingBox.intersects(MBR, region), on columns.
            hit = (
                (min_lat <= region.max_lat)
                & (max_lat >= region.min_lat)
                & (min_lng <= region.max_lng)
                & (max_lng >= region.min_lng)
            )
            rows = np.flatnonzero(hit if mine is None else hit & mine)
        if query.direction_deg is not None:
            # geodesy.angular_difference_deg, on a column.
            off = np.abs(cameras.extra[0][rows] - query.direction_deg) % 360.0
            rows = rows[np.minimum(off, 360.0 - off) <= query.direction_tolerance_deg]
        if query.mode == "scene":
            # A camera inside the region already makes intersects_box
            # true, so camera mode has no refine; scene mode does.
            if query.point is not None and query.radius_m == 0.0:
                kept = [r for r in rows.tolist() if fovs[r].contains_point(query.point)]
            else:
                kept = [r for r in rows.tolist() if fovs[r].intersects_box(region)]
            rows = np.array(kept, dtype=np.intp)
        return np.sort(cameras.ids[rows])

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

