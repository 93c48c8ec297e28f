"""The TVDP platform facade.

Wires together the four core services of paper Fig. 1 over one shared
store:

* **Acquisition** — image/video upload with FOV metadata, deduplication
  by content hash, augmentation;
* **Access** — the Fig. 2 relational schema plus the index suite
  (LSH, inverted index, and the FOV and vector columns that answer the
  Oriented R-tree's and the Visual R*-tree's questions) answering the
  five query families and hybrids;
* **Analysis** — pluggable feature extractors and the annotation
  machinery that stores model outputs back as shared knowledge;
* **Action** — hooks into :mod:`repro.edge` (dispatch, crowd learning).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.shard.router import ShardRouter  # devtools: allow[layer-boundary]

from repro import obs
from repro.obs.accounting import LOCAL_PRINCIPAL, charge, ledger_scope
from repro.errors import TVDPError
from repro.db.database import Database
from repro.features.base import FeatureExtractor
from repro.features.registry import FeatureRegistry
from repro.geo.fov import FieldOfView
from repro.geo.point import GeoPoint
from repro.geo.scene import LocalizedScene, scene_location
from repro.imaging.augment import Augmentation
from repro.imaging.image import Image
from repro.imaging.phash import NearDuplicateIndex
from repro.imaging.quality import assess_quality
from repro.index.lsh import LSHIndex
from repro.core.annotations import AnnotationService
from repro.core.answercache import AnswerCache
from repro.core.families import leaf_class, prepare, run_leaf
from repro.core.catalog import ClassificationCatalog
from repro.core.slice import CatalogSlice
from repro.core.queries import Answer, QueryResult, query_family, query_shape

_log = obs.get_logger("core.platform")

_FEATURE_CACHE_HITS = obs.metrics().counter("features.cache_hits")
_FEATURE_VECTORS_COMPUTED = obs.metrics().counter("features.vectors_computed")
_AUGMENTED_CREATED = obs.metrics().counter("platform.augmented_created")


@dataclass(frozen=True)
class UploadReceipt:
    """Outcome of an image upload.

    ``near_duplicate_of`` is set (and the image still stored) when
    near-duplicate detection is enabled and a perceptually similar
    image already exists; exact re-uploads set ``deduplicated`` and
    are not stored twice.
    """

    image_id: int
    deduplicated: bool
    near_duplicate_of: int | None = None


class TVDP:
    """One platform instance: storage, indexes, analysis, sharing.

    ``slice`` is the :class:`~repro.core.slice.CatalogSlice` over the
    whole catalog — ``db`` (its database) plus the index suite.

    Parameters
    ----------
    reject_low_quality:
        When set, uploads failing the focus/exposure gate raise
        :class:`TVDPError` instead of being stored.
    detect_near_duplicates:
        When set, uploads are checked against a perceptual-hash index
        and flagged (``UploadReceipt.near_duplicate_of``) when a
        visually near-identical image already exists.
    shards:
        ``shards > 1`` turns on scale-out execution: the catalog is
        partitioned into geo-tile shards (see :mod:`repro.shard`) and
        queries scatter-gather across them in this process, with
        results exactly equal to serial execution.  ``shards=1`` (the
        default) runs serial.
    shard_grid:
        ``(rows, cols)`` of the geo-tile lattice shards are carved
        from: two positive ints.
    """

    def __init__(
        self,
        reject_low_quality: bool = False,
        detect_near_duplicates: bool = False,
        shards: int = 1,
        shard_grid: tuple[int, int] = (8, 8),
    ) -> None:
        if shards < 1:
            raise TVDPError(f"shards must be >= 1, got {shards}")
        if not (
            isinstance(shard_grid, (tuple, list))
            and len(shard_grid) == 2
            and all(isinstance(n, int) and n > 0 for n in shard_grid)
        ):
            raise TVDPError(
                f"shard_grid must be two positive ints (rows, cols), got {shard_grid!r}"
            )
        self._adopt(CatalogSlice(Database.tvdp()))
        self.features = FeatureRegistry()
        self.reject_low_quality = reject_low_quality
        self.detect_near_duplicates = detect_near_duplicates
        self.shards = int(shards)
        self.shard_grid = shard_grid
        # One platform-wide writer lock: ingest and shard-router
        # lifecycle mutate the in-memory maps under it.  Query paths
        # take it only for short map lookups; the slice's registries and
        # the index structures carry their own internal locks.
        self._lock = threading.RLock()
        self._blobs: dict[int, Image] = {}
        self._hash_to_id: dict[str, int] = {}
        self._near_duplicates = NearDuplicateIndex() if detect_near_duplicates else None
        self._router: "ShardRouter | None" = None

    def _adopt(self, catalog_slice: CatalogSlice) -> None:
        """Serve ``catalog_slice``: the whole-catalog rows and index
        suite, the services that read and write its rows, and an empty
        answer cache over them."""
        self.slice = catalog_slice
        self.db: Database = catalog_slice.db
        self.catalog = ClassificationCatalog(self.db)
        self.annotations = AnnotationService(catalog_slice, self.catalog)
        self._answers = AnswerCache()

    # -- users & keys ---------------------------------------------------------

    def add_user(self, name: str, role: str, organization: str | None = None) -> int:
        """Register a participant (government, researcher, community...)."""
        return self.db.insert(
            "users", {"name": name, "role": role, "organization": organization}
        )

    # -- acquisition -------------------------------------------------------------

    def upload_image(
        self,
        image: Image,
        fov: FieldOfView,
        captured_at: float,
        uploaded_at: float,
        keywords: tuple[str, ...] = (),
        uploader_id: int | None = None,
        video_id: int | None = None,
        frame_number: int | None = None,
    ) -> UploadReceipt:
        """Store one geo-tagged image with its full descriptor set.

        Re-uploads of identical pixel content are deduplicated ("visual
        data is huge in size and many times redundant"): the existing
        image id is returned and no new row is created.
        """
        registry = obs.metrics()
        # Ingest is serialized under the platform lock: the dedup
        # check-then-insert must be atomic against concurrent uploads
        # of identical content.
        with self._lock, obs.span("platform.upload_image") as sp:
            with obs.span("upload.dedup"):
                content_hash = image.content_hash()
                duplicate_id = self._hash_to_id.get(content_hash)
            if duplicate_id is not None:
                sp.set("outcome", "deduplicated")
                registry.counter(
                    "platform.uploads", {"outcome": "deduplicated"}
                ).inc()
                return UploadReceipt(image_id=duplicate_id, deduplicated=True)
            if self.reject_low_quality:
                with obs.span("upload.quality_gate") as gate:
                    report = assess_quality(image)
                    gate.set("accepted", report.accepted)
                if not report.accepted:
                    sp.set("outcome", "rejected")
                    registry.counter(
                        "platform.uploads", {"outcome": "rejected"}
                    ).inc()
                    _log.warning(
                        "upload rejected by quality gate: %s",
                        ", ".join(report.reasons),
                    )
                    raise TVDPError(
                        f"upload rejected: {', '.join(report.reasons)} "
                        f"(sharpness={report.sharpness:.2e}, clipping={report.clipping:.2f})"
                    )
            near_duplicate_of = None
            if self._near_duplicates is not None:
                with obs.span("upload.near_duplicate"):
                    matches = self._near_duplicates.find_similar(image)
                if matches:
                    near_duplicate_of = matches[0][0]
                    registry.counter("platform.near_duplicates_flagged").inc()
            image_id = self.db.insert(
                "images",
                {
                    "uri": f"tvdp://images/{content_hash[:12]}",
                    "content_hash": content_hash,
                    "lat": fov.camera.lat,
                    "lng": fov.camera.lng,
                    "timestamp_capturing": float(captured_at),
                    "timestamp_uploading": float(uploaded_at),
                    "video_id": video_id,
                    "frame_number": frame_number,
                    "is_augmented": False,
                    "uploader_id": uploader_id,
                },
            )
            self.db.insert("image_fov", {"image_id": image_id, **_fov_columns(fov)})
            scene = scene_location(fov)
            self.db.insert(
                "image_scene_location",
                {
                    "image_id": image_id,
                    "min_lat": scene.min_lat,
                    "min_lng": scene.min_lng,
                    "max_lat": scene.max_lat,
                    "max_lng": scene.max_lng,
                },
            )
            for keyword in keywords:
                self.db.insert(
                    "image_manual_keywords", {"image_id": image_id, "keyword": keyword}
                )
            with obs.span("upload.index_insert"):
                self.slice.index_image(image_id, fov, keywords)
                self._blobs[image_id] = image
                self._hash_to_id[content_hash] = image_id
                if self._near_duplicates is not None:
                    self._near_duplicates.add(image_id, image)
            sp.set("outcome", "stored")
            sp.set("image_id", image_id)
            registry.counter("platform.uploads", {"outcome": "stored"}).inc()
            return UploadReceipt(
                image_id=image_id,
                deduplicated=False,
                near_duplicate_of=near_duplicate_of,
            )

    def register_video(
        self, uri: str, uploader_id: int | None = None, description: str = ""
    ) -> int:
        """Create a video row; its key frames are uploaded as images."""
        return self.db.insert(
            "videos",
            {"uri": uri, "uploader_id": uploader_id, "description": description or None},
        )

    def add_augmented(
        self, source_image_id: int, augmentations: list[Augmentation]
    ) -> list[int]:
        """Derive and store augmented variants of a stored image."""
        source = self.image(source_image_id)
        source_row = self.db.table("images").get(source_image_id)
        out = []
        created = 0
        with self._lock:
            for augmentation in augmentations:
                derived = augmentation(source)
                content_hash = derived.content_hash()
                if content_hash in self._hash_to_id:
                    out.append(self._hash_to_id[content_hash])
                    continue
                image_id = self.db.insert(
                    "images",
                    {
                        "uri": f"tvdp://images/{content_hash[:12]}",
                        "content_hash": content_hash,
                        "lat": source_row["lat"],
                        "lng": source_row["lng"],
                        "timestamp_capturing": source_row["timestamp_capturing"],
                        "timestamp_uploading": source_row["timestamp_uploading"],
                        "is_augmented": True,
                        "source_image_id": source_image_id,
                        "augmentation_name": augmentation.name,
                        "uploader_id": source_row["uploader_id"],
                    },
                )
                self._blobs[image_id] = derived
                self._hash_to_id[content_hash] = image_id
                out.append(image_id)
                created += 1
        _AUGMENTED_CREATED.inc(created)
        return out

    # -- access helpers ---------------------------------------------------------

    def image(self, image_id: int) -> Image:
        """Pixel content of a stored image."""
        with self._lock:
            if image_id not in self._blobs:
                raise TVDPError(f"no stored pixels for image {image_id}")
            return self._blobs[image_id]

    def blobs(self) -> dict[int, Image]:
        """Stored pixel content by image id (a snapshot, for persistence)."""
        with self._lock:
            return dict(self._blobs)

    def restore(self, db: Database, blobs: dict[int, Image]) -> None:
        """Replace the whole catalog with persisted state: ``db``'s rows
        and ``blobs`` as given, every index rebuilt from the rows.  The
        dedup map covers the images whose pixels came back.  For a
        platform nothing else holds yet (``load_platform``): services
        built over the old ``db`` would keep pointing at it."""
        rebuilt = CatalogSlice.rebuild(db)
        with self._lock:
            self._adopt(rebuilt)
            self._blobs = dict(blobs)
            self._hash_to_id = {
                row["content_hash"]: row["image_id"]
                for row in db.table("images").all_rows()
                if row["image_id"] in blobs
            }
            self._router = None

    def fov(self, image_id: int) -> FieldOfView:
        """FOV descriptor of a stored image (augmented images inherit
        their source's spatial descriptors and have no FOV row)."""
        rows = self.db.table("image_fov").find("image_id", image_id)
        if not rows:
            raise TVDPError(f"image {image_id} has no FOV row")
        row = rows[0]
        images_row = self.db.table("images").get(image_id)
        return FieldOfView(
            camera=GeoPoint(images_row["lat"], images_row["lng"]),
            direction_deg=row["direction_deg"],
            angle_deg=row["angle_deg"],
            range_m=row["range_m"],
        )

    def image_ids(self, include_augmented: bool = True) -> list[int]:
        """All stored image ids."""
        rows = self.db.table("images").all_rows()
        return [
            row["image_id"]
            for row in rows
            if include_augmented or not row["is_augmented"]
        ]

    def localize_scene(self, image_id: int, max_views: int = 8) -> LocalizedScene:
        """Refined scene location for one image using other overlapping
        views (the data-centric localisation of paper ref. [23]).

        One scan of the slice's FOV columns finds the stored images
        whose FOVs overlap this image's; intersecting their sectors
        shrinks the scene estimate and raises its confidence.  Of more
        than ``max_views - 1`` such views, the lowest image ids are
        used.  The refined box replaces the image's
        ``image_scene_location`` row.
        """
        with obs.span("platform.localize_scene", image_id=image_id) as sp:
            fov = self.fov(image_id)
            overlapping = [
                other
                for other in self.slice.overlapping_ids(fov).tolist()
                if other != image_id
            ][: max_views - 1]
            fovs = [fov] + [self.fov(other) for other in overlapping]
            estimate = LocalizedScene.estimate(fovs)
            sp.set("views", len(fovs))
        rows = self.db.table("image_scene_location").find("image_id", image_id)
        if rows:
            self.db.table("image_scene_location").update(
                rows[0]["scene_id"],
                {
                    "min_lat": estimate.box.min_lat,
                    "min_lng": estimate.box.min_lng,
                    "max_lat": estimate.box.max_lat,
                    "max_lng": estimate.box.max_lng,
                },
            )
        return estimate

    # -- analysis ------------------------------------------------------------------

    def register_extractor(self, extractor: FeatureExtractor) -> None:
        """Expose a feature extractor platform-wide."""
        self.features.register(extractor)

    def extract_features(
        self, extractor_name: str, image_ids: list[int] | None = None
    ) -> dict[int, np.ndarray]:
        """Compute (or fetch cached) features and index them for visual
        and hybrid search.  Returns image id -> vector."""
        extractor = self.features.get(extractor_name)
        targets = image_ids if image_ids is not None else self.image_ids()
        table = self.db.table("image_visual_features")
        out: dict[int, np.ndarray] = {}
        self.slice.add_extractor(extractor_name, extractor.dimension())
        with obs.span(
            "features.extract", extractor=extractor_name, images=len(targets)
        ) as sp:
            computed = 0
            cache_hits = 0
            for image_id in targets:
                cached = [
                    row
                    for row in table.find("image_id", image_id)
                    if row["extractor_name"] == extractor_name
                ]
                if cached:
                    out[image_id] = np.array(cached[0]["vector"], dtype=np.float64)
                    charge("feature_bytes", out[image_id].nbytes)
                    cache_hits += 1
                    continue
                vector = extractor.extract(self.image(image_id))
                charge("feature_bytes", vector.nbytes)
                self.db.insert(
                    "image_visual_features",
                    {
                        "image_id": image_id,
                        "extractor_name": extractor_name,
                        "vector": vector.tolist(),
                    },
                )
                self.slice.index_vector(extractor_name, image_id, vector)
                out[image_id] = vector
                computed += 1
            sp.set("computed", computed)
            sp.set("cache_hits", cache_hits)
            _FEATURE_VECTORS_COMPUTED.inc(computed)
            _FEATURE_CACHE_HITS.inc(cache_hits)
        return out

    def feature_vector(self, image_id: int, extractor_name: str) -> np.ndarray:
        """Stored feature vector, computing it on demand."""
        return self.extract_features(extractor_name, [image_id])[image_id]

    # -- query execution ---------------------------------------------------------

    def answer(self, query: object) -> Answer:
        """Run any of the five query families or a hybrid — the one
        execution path; the answer is ids and scores as two columns.
        With ``shards > 1`` it scatter-gathers across the geo-tile
        shards, to exactly the serial answer.  A repeat with no write
        since comes from the answer cache (:mod:`repro.core.answercache`)
        and may be shared, so it is read-only."""
        return self._answer(query, self._answers)

    def execute(self, query: object) -> list[QueryResult]:
        """:meth:`answer` as a list of :class:`QueryResult`."""
        return self.answer(query).results()

    def execute_serial(self, query: object) -> list[QueryResult]:
        """:meth:`execute` past the scatter-gather and the answer cache:
        the oracle the equivalence harness holds sharded answers to."""
        return self._answer(query, None, self._run).results()

    def _run_sharded(self, query: object) -> Answer:
        """``query`` through the shard router, which writes what it
        pruned and dispatched on the query's span."""
        return self._shard_router().answer(query)[0]

    def _shard_router(self) -> "ShardRouter":
        with self._lock:
            if self._router is None:
                # The shard layer sits *above* core in the layer DAG; this
                # lazy import is the one sanctioned downward reference.
                from repro.shard.router import ShardRouter  # devtools: allow[layer-boundary]

                self._router = ShardRouter(self, self.shards, self.shard_grid)
            return self._router

    def set_shards(self, shards: int) -> None:
        """Re-shard the platform in place (``shards=1`` returns to
        serial).  The existing partition is dropped."""
        if shards < 1:
            raise TVDPError(f"shards must be >= 1, got {shards}")
        self.close()
        self.shards = int(shards)

    def close(self) -> None:
        """Drop the shard partition (none when serial) and the answer
        cache; the next sharded query rebuilds the partition."""
        with self._lock:
            self._router = None
            self._answers = AnswerCache()

    def shard_plan_preview(self, query: object) -> dict | None:
        """Shard-pruning annotation for EXPLAIN — ``shards_considered``
        and ``shards_pruned`` without executing; ``None`` when serial."""
        if self.shards <= 1:
            return None
        return self._shard_router().preview(query)

    def visual_indexes(self) -> dict[str, LSHIndex]:
        """Live LSH indexes by extractor name (a read-only view)."""
        return self.slice.visual_indexes()

    def hybrid_indexes(self) -> dict[str, SimpleNamespace]:
        """Per extractor name, an object whose ``spatial_visual_knn(region,
        vector, k)`` is the slice's fused column path
        (:meth:`CatalogSlice.spatial_visual_topk`).  Only the
        benchmark's shadow trace reads it; it goes when that replay does."""
        return {
            name: SimpleNamespace(
                spatial_visual_knn=partial(self.slice.spatial_visual_topk, name)
            )
            for name in self.slice.visual_indexes()
        }

    def _answer(self, query: object, cache: AnswerCache | None, run=None) -> Answer:
        """``run(query)`` — by default the platform's own runner, serial
        or scatter-gather — as one billed, traced, counted query, looked
        up in and offered to ``cache`` unless that is ``None`` (the
        serial oracle and EXPLAIN ANALYZE measure real work).  A hit
        runs nothing and bills nothing; its span says ``cache="hit"``."""
        if run is None:
            run = self._run_sharded if self.shards > 1 else self._run
        family = query_family(query)
        shape = query_shape(query)
        # Billed to the open unit of work: where its bill is named and
        # takes the charges (an API request's), the query joins it as it
        # is; otherwise a billable scope names it, or opens a local one.
        unit = obs.current_unit()
        joined = unit is not None and unit.principal is not None and unit.sheet is unit.charges
        with nullcontext() if joined else ledger_scope(
            obs.usage(), principal=LOCAL_PRINCIPAL, operation=f"execute.{family}"
        ):
            with obs.span(f"query.{family}") as sp:
                answer = ticket = None
                if cache is not None:
                    answer, ticket = cache.lookup(query, self.db.version)
                if answer is None:
                    sp.set("path", leaf_class(query).path(query))
                    answer = run(query)
                    if ticket is not None:
                        cache.admit(ticket, answer, self.db.version)
                else:
                    sp.set("cache", "hit")
                sp.set("results", len(answer))
            # duration_ms is only final once the span has closed.
            obs.note_query(shape, family, sp.duration_ms)
        return answer

    def _run(self, query: object) -> Answer:
        """``query`` on the whole catalog; a general hybrid's parts each in
        an uncounted ``query.<family>`` child span, as one query."""
        return run_leaf(prepare(query, self), self.slice)

    # -- stats ---------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Platform-wide counters (exposed by the API's stats route),
        including per-operation latency summaries from the span
        histograms."""
        store = obs.records()
        with self._lock:
            n_blobs = len(self._blobs)
        return {
            "rows": self.db.row_counts(),
            "blobs": n_blobs,
            "indexed_fovs": self.slice.fov_count(),
            "extractors": self.features.names(),
            "lsh_indexes": sorted(self.slice.visual_indexes()),
            "latency_ms": self.latency_summaries(),
            "latency_ms_window": store.window_summaries(),
            "window_s": store.WINDOW_S,
            "usage": store.report(),
        }

    def latency_summaries(self) -> dict[str, dict[str, float]]:
        """Span name -> {count, sum, min, max, p50, p95, p99} (ms) for
        every operation traced so far in this process."""
        out: dict[str, dict[str, float]] = {}
        for hist in obs.metrics().histograms("span.duration_ms"):
            labels = dict(hist.labels)
            if hist.count and "span" in labels:
                out[labels["span"]] = hist.summary()
        return dict(sorted(out.items()))

    def metrics_snapshot(self) -> dict[str, dict]:
        """Current values of every metric (see
        :meth:`repro.obs.MetricsRegistry.snapshot`)."""
        return obs.snapshot()


def _fov_columns(fov: FieldOfView) -> dict[str, float]:
    return {
        "direction_deg": fov.direction_deg,
        "angle_deg": fov.angle_deg,
        "range_m": fov.range_m,
    }
