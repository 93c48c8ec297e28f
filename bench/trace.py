"""The traced run: per-layer numbers, taken from outside the program.

The program is not instrumented.  For a sample of a workload's requests
the benchmark calls each layer's public functions itself, with the
parameters the request carries, and records one span per call::

    api.handle                 service.handle(request)
      shard.execute            platform.execute(query)
        core.execute_serial    platform.execute_serial(query)
          index.probe          the index search that query makes
          db.fetch             the table reads that query makes

A child is a *replay* of a call its parent makes, timed on its own, so
it starts after its parent ended; what nests is the work.  A layer's
self time is its span minus its children, and the five self times of a
request add up to its ``api.handle`` span.  ``index.probe`` and
``db.fetch`` of a family that makes no such call read the clock's floor.

Counts (rows scanned, index candidates, shard fan-out) are the
program's own, read from ``explain(analyze=True)`` over a fixed-size
sample so that they repeat exactly.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

from repro import obs
from repro.api import image_from_payload
from repro.core import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    explain,
)
from repro.db import Database
from repro.errors import TVDPError
from repro.features import ColorHistogramExtractor
from repro.geo import FieldOfView, GeoPoint, scene_location
from repro.index import InvertedIndex, LSHIndex, OrientedRTree, VisualRTree

from bench import corpus
from bench.hostspeed import HostSpeed
from bench.schedule import FAMILIES, Sizes
from bench.session import OUT_DIR, Session, build_query, median, percentile
from bench.workloads import (
    SHARDED,
    WARMUP_SEARCHES,
    Plan,
    Result,
    check_reload,
    cycle_budget,
    plan,
    strided,
)

COUNT_SAMPLE = 240
PLAIN_SAMPLE = 300
DISPATCH_SAMPLE = 120
UNIT_SEARCHES = 120
UNIT_CALLS = 2000
DIRECT_EVERY = 8  # set-up cycles that bypass the API, to split api from core

#: The counter that says how much an index looked at, per family.
CANDIDATE_COUNTER = {
    "spatial": "index.oriented.candidates",
    "visual": "index.lsh.candidates",
    "textual": "index.inverted.postings_scanned",
    "hybrid": "index.visual_rtree.heap_pops",
}

SELF_TIME_METRIC = {
    "api.handle": "api.self_ms",
    "shard.execute": "shard.net_ms",
    "core.execute_serial": "core.self_ms",
    "index.probe": "index.probe_ms",
    "db.fetch": "db.fetch_ms",
}


@dataclass
class Span:
    name: str
    end: float  # perf_counter reading when the call returned
    seconds: float  # its duration at reference host speed
    parent: int | None
    request: str
    family: str


class Recorder:
    """Bench-side spans, kept in memory until the run ends."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.spans: list[Span] = []

    def add(self, name, seconds, parent, request, family) -> int:
        """Record a call that ended just now and took ``seconds``."""
        self.spans.append(
            Span(name, time.perf_counter(), seconds, parent, request, family)
        )
        return len(self.spans) - 1

    def timed(self, name, call, parent, request, family):
        value, seconds = self.speed.measure(call)
        return value, self.add(name, seconds, parent, request, family)

    def self_ms(self) -> dict[tuple[str, str], float]:
        """Median self time in ms per (span name, family)."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        groups = defaultdict(list)
        for n, span in enumerate(self.spans):
            groups[span.name, span.family].append(span.seconds - children[n])
        return {key: median(values) * 1e3 for key, values in groups.items()}

    def write(self, workload: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace_{workload}.jsonl", "w") as out:
            for n, span in enumerate(self.spans):
                out.write(json.dumps({"id": n, **asdict(span)}) + "\n")


class GcWatch:
    """Collector pauses in this process while it searches, via
    ``gc.callbacks``.  The collector stays on: users pay it."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.total = 0.0  # raw seconds, for a share of raw wall time
        self.max_pause = 0.0  # at reference host speed
        self.collections = 0
        self.gen2_collections = 0
        self._started = 0.0
        gc.callbacks.append(self._on_event)

    def _on_event(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.total += pause
        self.collections += 1
        self.gen2_collections += info["generation"] == 2
        self.max_pause = max(self.max_pause, pause / self.speed.factor)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_event)


def fov_of(c: corpus.Capture) -> FieldOfView:
    return FieldOfView.from_dict(corpus.fov_body(c))


class Shadow:
    """The platform's index probes and table reads, callable on their
    own.  The spatial and text indexes are private to the platform, so
    the benchmark builds its own over the same images in the same order;
    the visual indexes and the tables are reached through public
    accessors."""

    def __init__(self, platform) -> None:
        self.platform = platform
        self.spatial = OrientedRTree()
        self.text = InvertedIndex()

    def insert(self, image_id: int, fov: FieldOfView, text: str) -> None:
        self.spatial.insert(image_id, fov)
        self.text.add(image_id, text)

    def probe(self, query: object) -> list:
        if isinstance(query, SpatialQuery):
            return self.spatial.search_range(
                query.bounding_region(),
                direction_deg=query.direction_deg,
                tolerance_deg=query.direction_tolerance_deg,
            )
        if isinstance(query, VisualQuery):
            index = self.platform.visual_indexes()[query.extractor_name]
            return index.query_topk(query.vector, query.k)
        if isinstance(query, TextualQuery):
            if query.match == "all":
                return self.text.search_all(query.text)
            return self.text.search_any(query.text)
        if isinstance(query, HybridQuery):
            spatial, visual = query.queries
            index = self.platform.hybrid_indexes()[visual.extractor_name]
            return index.spatial_visual_knn(
                spatial.bounding_region(), visual.vector, visual.k
            )
        return []

    def fetch(self, query: object, hits: list) -> list:
        db = self.platform.db
        if isinstance(query, SpatialQuery) and query.mode == "camera":
            images = db.table("images")
            return [images.get(image_id) for image_id in hits]
        if isinstance(query, CategoricalQuery):
            annotations = db.table("image_content_annotation")
            type_id = self.platform.catalog.type_id
            return [
                annotations.find("type_id", type_id(query.classification, label))
                for label in query.labels
            ]
        if isinstance(query, TemporalQuery):
            lo, hi, column = query.start, query.end, query.field
            return list(db.table("images").scan(lambda row: lo <= row[column] <= hi))
        return []


def unit_cost(speed: HostSpeed, call) -> float:
    """Median seconds per call of a cheap public function, timed in
    blocks of 20 so that the clock reads do not dominate; the host's
    speed is read once, before."""
    factor = speed.factor
    block = range(20)
    samples = []
    for _ in range(UNIT_CALLS // len(block)):
        t0 = time.perf_counter()
        for _ in block:
            call()
        samples.append(time.perf_counter() - t0)
    return median(samples) / len(block) / factor


def upload_rows(image_id: int, c: corpus.Capture) -> list[tuple[str, dict]]:
    """The rows one upload inserts, for the scratch database."""
    fov = corpus.fov_body(c)
    scene = scene_location(FieldOfView.from_dict(fov))
    return [
        ("images", {
            "image_id": image_id, "uri": f"bench://{image_id}",
            "content_hash": str(image_id), "lat": c.lat, "lng": c.lng,
            "timestamp_capturing": c.captured_at,
            "timestamp_uploading": c.captured_at + 5.0, "is_augmented": False,
        }),
        ("image_fov", {
            "image_id": image_id, "direction_deg": fov["direction_deg"],
            "angle_deg": fov["angle_deg"], "range_m": fov["range_m"],
        }),
        ("image_scene_location", {
            "image_id": image_id, "min_lat": scene.min_lat, "min_lng": scene.min_lng,
            "max_lat": scene.max_lat, "max_lng": scene.max_lng,
        }),
        *(
            ("image_manual_keywords", {"image_id": image_id, "keyword": k})
            for k in c.keywords
        ),
    ]


class TracedRun:
    def __init__(self, name: str, p: Plan) -> None:
        self.plan = p
        self.session = Session(sharded=name in SHARDED)
        self.speed = self.session.speed
        self.rec = Recorder(self.speed)
        self.platform = self.session.platform
        self.shadow = Shadow(self.platform)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.cycles = iter(p.cycles)
        self.writes = 0
        self.raw_searches: list[float] = []  # unadjusted, plain pass and replay

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # -- set-up: the write path, layer by layer ----------------------------------

    def set_up(self) -> None:
        """Ingest the base corpus like the untraced run, except that
        every 8th cycle calls the platform directly (api = via API minus
        direct) and every 8th replays the pure pieces of an upload on
        their own: hashing, feature extraction, and inserts into
        bench-built tables and indexes that hold every 8th image."""
        measure = self.speed.measure
        extractor = ColorHistogramExtractor()
        scratch_db = Database.tvdp()
        scratch_lsh = LSHIndex(extractor.dimension())
        scratch_hybrid = VisualRTree(extractor.dimension())
        t = defaultdict(list)
        for i, c in enumerate(self.plan.base):
            if i % DIRECT_EVERY == DIRECT_EVERY // 2:
                image_id = self._write_direct(c, f"setup-{i}", t)
            else:
                image_id, upload_s, _ = self.session.write(c)
                self.rec.add("api.handle", upload_s, None, f"setup-{i}", "upload")
                t["api_upload"].append(upload_s)
            t["index_insert"].append(self.shadow_insert(image_id, c))
            if i % DIRECT_EVERY:
                continue
            image = image_from_payload({"pixels_u8": c.pixels_u8})
            point = GeoPoint(c.lat, c.lng)
            rows = upload_rows(image_id, c)
            t["hash"].append(measure(image.content_hash)[1])
            vector, seconds = measure(lambda: extractor.extract(image))
            t["extract"].append(seconds)
            t["feature_index"].append(
                measure(
                    lambda: (
                        scratch_lsh.insert(image_id, vector),
                        scratch_hybrid.insert(image_id, point, vector),
                    )
                )[1]
            )
            t["db_insert"].append(
                measure(lambda: [scratch_db.insert(*row) for row in rows])[1] / len(rows)
            )
        core_upload = median(t["core_upload"])
        self.put("core.upload_ms", core_upload * 1e3, "ms")
        self.put("api.upload_self_ms", (median(t["api_upload"]) - core_upload) * 1e3, "ms")
        self.put("upload_p99_ms", percentile(t["api_upload"], 99.0) * 1e3, "ms")
        self.put("core.upload.hash_ms", median(t["hash"]) * 1e3, "ms")
        self.put("core.annotate_ms", median(t["annotate"]) * 1e3, "ms")
        self.put("index.insert_ms", median(t["index_insert"]) * 1e3, "ms")
        self.put("db.insert_us", median(t["db_insert"]) * 1e6, "us")
        self.put("features.extract_ms", median(t["extract"]) * 1e3, "ms")
        self.put("features.index_ms", median(t["feature_index"]) * 1e3, "ms")

    def shadow_insert(self, image_id: int, c: corpus.Capture) -> float:
        fov, text = fov_of(c), " ".join(c.keywords)
        return self.speed.measure(lambda: self.shadow.insert(image_id, fov, text))[1]

    def _write_direct(self, c: corpus.Capture, request: str, t: dict) -> int:
        """The write cycle of ``Session.write``, below the API."""
        body = corpus.upload_body(c)
        image, fov = image_from_payload(body["image"]), fov_of(c)
        receipt, seconds = self.speed.measure(
            lambda: self.platform.upload_image(
                image, fov, body["captured_at"], body["uploaded_at"],
                keywords=tuple(body["keywords"]),
            )
        )
        t["core_upload"].append(seconds)
        self.rec.add("core.upload_image", seconds, None, request, "upload")
        for a in corpus.annotation_bodies(c):
            t["annotate"].append(
                self.speed.measure(
                    lambda: self.platform.annotations.annotate(
                        receipt.image_id, a["classification"], a["label"],
                        confidence=a["confidence"], source=a["source"],
                    )
                )[1]
            )
        self.platform.feature_vector(receipt.image_id, corpus.EXTRACTOR)
        return receipt.image_id

    def warm_up(self) -> None:
        """The first search builds the shard partition and starts the
        pool (nothing, on a serial platform): its cost over a steady
        repeat of the same search is ``shard.repartition_s``."""
        first = self.plan.searches[0]
        _, cold = self.session.search(first)
        for spec in self.plan.searches[1:WARMUP_SEARCHES]:
            self.session.search(spec)
        _, steady = self.session.search(first)
        self.put("shard.repartition_s", cold - steady, "s")

    # -- counts: a fixed sample through EXPLAIN ANALYZE ------------------------------

    def counts(self) -> None:
        registry = obs.metrics()
        before = registry.counter_values()
        results, rows, candidates = defaultdict(int), defaultdict(int), defaultdict(int)
        analyze_ms, totals = defaultdict(list), defaultdict(float)
        plan_s, preview_s = [], []
        shards = pruned = 0
        for spec in strided(self.plan.searches, COUNT_SAMPLE):
            family = spec["type"]
            query = build_query(spec)
            plan_s.append(self.speed.measure(lambda: explain(self.platform, query))[1])
            preview, seconds = self.speed.measure(
                lambda: self.platform.shard_plan_preview(query)
            )
            preview_s.append(seconds)
            if preview is not None:
                shards += preview["shards"]
                pruned += preview["shards_pruned"]
            node = explain(self.platform, query, analyze=True)
            if node.query_type == "scatter_gather":
                node = node.children[0]
            results[family] += node.rows
            rows[family] += node.charges.get("rows_scanned", 0)
            analyze_ms[family].append(node.elapsed_ms / self.speed.factor)
            for counter, delta in node.counter_deltas.items():
                totals[counter] += delta
            candidates[family] += node.counter_deltas.get(
                CANDIDATE_COUNTER.get(family), 0
            )
        after = registry.counter_values()

        def moved(counter: str) -> float:
            return after.get(counter, 0.0) - before.get(counter, 0.0)

        for family in FAMILIES:
            self.put(f"core.analyze_ms.{family}", median(analyze_ms[family]), "ms")
            returned = max(results[family], 1)
            self.put(f"db.rows_per_result.{family}", rows[family] / returned, "ratio")
            if family in CANDIDATE_COUNTER:
                self.put(
                    f"index.candidates_per_result.{family}",
                    candidates[family] / returned, "ratio",
                )
        self.put("core.plan_ms", median(plan_s) * 1e3, "ms")
        self.put("shard.preview_ms", median(preview_s) * 1e3, "ms")
        self.put("shard.pruned_share", pruned / max(shards, 1), "ratio")
        self.put("shard.fanouts", moved("shard.fanouts"), "count")
        retries = moved('resilience.retries{site="shard.dispatch"}')
        self.put("shard.retries", retries, "count")
        self.put("shard.partial_results", moved("shard.partial_results"), "count")
        self.put(
            "index.lsh.fallback_share",
            totals["index.lsh.fallback_scans"] / max(totals["index.lsh.queries"], 1),
            "ratio",
        )
        self.put(
            "index.rtree.node_visits_per_query",
            totals["index.rtree.node_visits"] / max(totals["index.rtree.range_queries"], 1),
            "ratio",
        )

    # -- the replay: one span per layer per sampled request ----------------------------

    def before_call(self) -> None:
        """In a write workload every search of the timed run meets one
        write since the last search; every replayed call must meet the
        same, or the first replay would pay for the caches a write
        drops and the later ones would not."""
        cycle = next(self.cycles, None)
        if cycle is None:
            return
        image_id, upload_s, _ = self.session.write(cycle.capture, cycle.reupload)
        self.rec.add("api.handle", upload_s, None, f"write-{self.writes}", "upload")
        self.writes += 1
        if not cycle.reupload:
            self.shadow_insert(image_id, cycle.capture)

    def plain_pass(self, sample: list[dict]) -> list[float]:
        """The sample exactly as the untraced run sends it: the reference
        the traced ``api.handle`` spans are held against."""
        latencies = []
        for spec in sample:
            self.before_call()
            latencies.append(self.session.search(spec)[1])
            self.raw_searches.append(self.session.last_raw)
        return latencies

    def replay(self, sample: list[dict], seconds: float) -> list[float]:
        """Layer-by-layer replay of ``sample`` until ``seconds`` have
        passed or it ends; returns the ``api.handle`` latencies in order."""
        rec, platform, shadow = self.rec, self.platform, self.shadow
        deadline = time.perf_counter() + seconds
        handles = []
        for n, spec in enumerate(sample):
            family, request = spec["type"], f"search-{n}"
            query = build_query(spec)
            self.before_call()
            _, elapsed = self.session.search(spec)
            handles.append(elapsed)
            self.raw_searches.append(self.session.last_raw)
            root = rec.add("api.handle", elapsed, None, request, family)
            self.before_call()
            answer, sharded = rec.timed(
                "shard.execute", lambda: platform.execute(query), root, request, family
            )
            self.before_call()
            serial, core = rec.timed(
                "core.execute_serial", lambda: platform.execute_serial(query),
                sharded, request, family,
            )
            self.before_call()
            hits, _ = rec.timed(
                "index.probe", lambda: shadow.probe(query), core, request, family
            )
            rec.timed("db.fetch", lambda: shadow.fetch(query, hits), core, request, family)
            self.session.attempted += 1
            if not self.plan.cycles and answer != serial:
                self.session.fail(f"{family}: execute differs from execute_serial")
            if time.perf_counter() >= deadline:
                break
        return handles

    def layer_metrics(self, plain: list[float], handles: list[float]) -> None:
        self_ms = self.rec.self_ms()
        for span, metric in SELF_TIME_METRIC.items():
            for family in FAMILIES:
                self.put(f"{metric}.{family}", self_ms[span, family], "ms")
        per_family = Counter(
            span.family for span in self.rec.spans if span.name == "shard.execute"
        )
        self.put("trace.samples_per_family", min(per_family[f] for f in FAMILIES), "count")
        searches = plain + handles
        self.put("search_p50_ms", median(searches) * 1e3, "ms")
        self.put("search_p99_ms", percentile(searches, 99.0) * 1e3, "ms")
        self.put("raw.search_p50_ms", median(self.raw_searches) * 1e3, "ms")
        both = min(len(plain), len(handles))
        self.put(
            "trace.overhead_share",
            median(handles[:both]) / median(plain[:both]) - 1.0, "ratio",
        )

    # -- after the replay --------------------------------------------------------------

    def dispatch(self, sample: list[dict]) -> None:
        """``execute`` under the default pool minus under the inline
        pool, same queries.  A serial platform has no pool and reads
        about zero; so would a program that had dropped a pool kind."""
        queries = [build_query(spec) for spec in sample]

        def executes() -> list[float]:
            self.platform.execute(queries[0])  # builds the partition, if any
            return [
                self.speed.measure(lambda: self.platform.execute(query))[1]
                for query in queries
            ]

        default = executes()
        try:
            self.session.use_inline_pool()
        except (TVDPError, TypeError):
            pass
        gaps = [a - b for a, b in zip(default, executes())]
        self.put("shard.dispatch_ms", median(gaps) * 1e3, "ms")

    def unit_costs(self, sample: list[dict], search_p50_s: float) -> None:
        """What one call of each instrumentation primitive costs, how
        many a search makes, and their product as a share of a search."""
        session, registry = self.session, obs.metrics()

        def one_span() -> None:
            with obs.span("bench.unit"):
                pass

        def one_ledger() -> None:
            with obs.ledger_scope(table=obs.usage(), principal="bench"):
                pass

        speed = self.speed
        span_s = unit_cost(speed, one_span)
        ledger_s = unit_cost(speed, one_ledger)
        counter_s = unit_cost(
            speed, lambda: registry.counter("bench.unit", {"k": "v"}).inc()
        )
        hot_s = unit_cost(speed, lambda: obs.hot_queries().record("bench(unit)", 1.0))
        self.put("obs.span_us", span_s * 1e6, "us")
        self.put("obs.ledger_us", ledger_s * 1e6, "us")
        self.put("obs.counter_us", counter_s * 1e6, "us")
        self.put("obs.hot_record_us", hot_s * 1e6, "us")

        # What the closed loop spends outside the program per request:
        # building the request, book-keeping, the host-speed samples.
        served = session.raw_seconds
        wall0 = time.perf_counter()
        for spec in sample:
            session.search(spec)
        overhead = time.perf_counter() - wall0 - (session.raw_seconds - served)
        self.put("gen.overhead_us", overhead / len(sample) / speed.factor * 1e6, "us")
        spans = counters = 0
        for spec in sample[: 2 * len(FAMILIES)]:
            before = registry.counter_values()
            session.search(spec)
            after = registry.counter_values()
            changed = {
                k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k)
            }
            spans += sum(v for k, v in changed.items() if k.startswith("spans.total"))
            counters += len(changed)
        per_search = 1.0 / (2 * len(FAMILIES))
        self.put("obs.spans_per_request", spans * per_search, "ratio")
        estimate = (spans * span_s + counters * counter_s) * per_search + ledger_s + hot_s
        self.put("obs.est_share", estimate / search_p50_s, "ratio")

        auth_s = unit_cost(speed, lambda: session.service.keys.validate(session.key))
        self.put("api.auth_us", auth_s * 1e6, "us")
        routes = [session.call("GET", "/routes")[1] for _ in range(UNIT_SEARCHES)]
        self.put("api.middleware_ms", median(routes) * 1e3, "ms")
        images = self.platform.db.table("images")
        ids = itertools.cycle(range(1, len(images) + 1))
        self.put("db.get_us", unit_cost(speed, lambda: images.get(next(ids))) * 1e6, "us")
        scans = [
            speed.measure(lambda: sum(1 for _ in images.scan(lambda row: False)))[1]
            for _ in range(5)
        ]
        self.put("db.scan_ms", median(scans) * 1e3, "ms")

    def persist(self) -> None:
        reloaded, save_s, load_s, size = self.session.persist()
        check_reload(self.session, reloaded, self.plan.searches)
        self.put("persist_s", save_s + load_s, "s")
        self.put("core.persist.save_s", save_s, "s")
        self.put("core.persist.load_s", load_s, "s")
        images = len(self.platform.db.table("images"))
        self.put("core.persist.bytes_per_image", size / images, "B")


def run(name: str, sizes: Sizes, seed: int, seconds: float) -> Result:
    p = plan(name, sizes, seed)
    traced = TracedRun(name, p)
    session = traced.session
    try:
        traced.set_up()
        traced.warm_up()
        traced.counts()
        watch = GcWatch(traced.speed)
        searching = time.perf_counter()
        if p.cycles:
            # Fixed count, as in the untraced run and for its reason: a
            # plain request is preceded by one write cycle and a replayed
            # one by four, together the untraced run's cycle budget.
            sample = p.searches[: cycle_budget(p, sizes, seconds) // 5]
            plain = traced.plain_pass(sample)
            handles = traced.replay(sample, float("inf"))
        else:
            plain = traced.plain_pass(p.searches[:PLAIN_SAMPLE])
            handles = traced.replay(p.searches, seconds)
        searching = time.perf_counter() - searching
        watch.stop()
        traced.layer_metrics(plain, handles)
        traced.unit_costs(p.searches[:UNIT_SEARCHES], median(plain))
        traced.persist()
        # Last: it leaves the platform on the inline pool.
        traced.dispatch(p.searches[:DISPATCH_SAMPLE])
    finally:
        session.close()
    api_errors = sum(
        value
        for counter, value in obs.metrics().counter_values().items()
        if counter.startswith("api.errors")
    )
    traced.put("api.errors", api_errors, "count")
    traced.put("runtime.gc_share", watch.total / searching, "ratio")
    traced.put("runtime.gc_max_pause_ms", watch.max_pause * 1e3, "ms")
    traced.put("runtime.gc_collections", watch.collections, "count")
    traced.put("runtime.gc_gen2_collections", watch.gen2_collections, "count")
    traced.put("gen.repeat_share", p.repeat_share, "ratio")
    traced.put("failed_share", session.failed / session.attempted, "ratio")
    # Raw beside adjusted, so that two runs can be cross-checked both ways.
    traced.put("host.slowdown", session.raw_seconds / session.seconds, "ratio")
    traced.put("host.kernel_us", median(traced.speed.samples) * 1e6, "us")
    traced.rec.write(name)
    notes = {
        "schedule_sha256": p.digest,
        "requests_replayed": len(handles),
        "spans": len(traced.rec.spans),
        "trace_file": f"bench/out/trace_{name}.jsonl",
    }
    return Result(
        traced.metrics, session.attempted, session.failed, session.problems, notes
    )
