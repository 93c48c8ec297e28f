"""One platform under test, driven through its API from one client."""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import TVDP
from repro.api import Request, TVDPService
from repro.core import (
    CategoricalQuery,
    HybridQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    VisualQuery,
    load_platform,
    save_platform,
)
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox

from bench import corpus
from bench.hostspeed import HostSpeed

OUT_DIR = Path(__file__).resolve().parent / "out"
SHARDS = 4


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def _peak_kb(pid: int | str) -> int:
    """High-water resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def build_platform(sharded: bool) -> tuple[TVDP, TVDPService]:
    if sharded:
        # The default pool kind, whatever it is: what a user gets.
        platform = TVDP(shards=SHARDS, shard_grid=(corpus.GRID, corpus.GRID))
    else:
        platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    return platform, TVDPService(platform, deterministic_keys=True)


class Session:
    """A platform, its service and an API key, plus the tally of every
    request sent, every answer found wrong, and the seconds the program
    spent serving (raw, and at reference host speed: see
    :mod:`bench.hostspeed`)."""

    def __init__(self, sharded: bool) -> None:
        self.speed = HostSpeed()
        (self.platform, self.service), self.seconds = self.speed.measure(
            lambda: build_platform(sharded)
        )
        self.raw_seconds = self.seconds * self.speed.factor
        self.last_raw = 0.0  # unadjusted seconds of the latest request
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.key = None
        user, _ = self.call(
            "POST", "/users", {"name": "bench", "role": "benchmark"}, (201,)
        )
        key, _ = self.call("POST", "/keys", {"user_id": user.body["user_id"]}, (201,))
        self.key = key.body["api_key"]
        for name, labels in corpus.CLASSIFICATIONS.items():
            self.call("POST", "/classifications", {"name": name, "labels": labels}, (201,))

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def call(self, method: str, path: str, body: dict | None = None, ok=(200,)):
        """Send one request; returns the response and the seconds spent
        inside ``handle``, at reference host speed (the request object
        is built, and the host's speed sampled, outside them)."""
        request = Request(method, path, body=body, api_key=self.key)
        t0 = time.perf_counter()
        response = self.service.handle(request)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if response.status not in ok:
            self.fail(f"{method} {path} -> {response.status}: {response.body}")
        adjusted = elapsed / self.speed.factor
        self.last_raw = elapsed
        self.raw_seconds += elapsed
        self.seconds += adjusted
        self.speed.tick()
        return response, adjusted

    def search(self, spec: dict) -> tuple[list, float]:
        response, elapsed = self.call("POST", "/search", spec)
        results = response.body.get("results")
        if not isinstance(results, list):
            if response.status == 200:
                self.fail(f"search body without results: {response.body}")
            results = []
        return results, elapsed

    def write(self, c: corpus.Capture, reupload: bool = False) -> tuple[int, float, float]:
        """One write cycle through the API: upload, two annotations, one
        feature request.  Returns the image id, the upload's seconds and
        the whole cycle's."""
        response, upload_s = self.call(
            "POST", "/images", corpus.upload_body(c), (200,) if reupload else (201,)
        )
        image_id = response.body.get("image_id")
        total = upload_s
        for body in corpus.annotation_bodies(c):
            total += self.call("POST", f"/images/{image_id}/annotations", body, (201,))[1]
        features, elapsed = self.call(
            "POST", f"/features/{corpus.EXTRACTOR}", {"image_id": image_id}
        )
        if features.body.get("dimension") != 50:
            self.fail(f"feature vector of image {image_id}: {features.body}")
        return image_id, upload_s, total + elapsed

    def persist(self) -> tuple[TVDP, float, float, int]:
        """``save_platform`` then ``load_platform`` in a scratch directory
        under ``bench/out``; returns the reloaded platform, both times
        (at reference host speed) and the bytes written."""
        OUT_DIR.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(prefix="persist_", dir=OUT_DIR)
        try:
            _, save_s = self.speed.measure(
                lambda: save_platform(self.platform, directory)
            )
            reloaded, load_s = self.speed.measure(lambda: load_platform(directory))
            size = sum(f.stat().st_size for f in Path(directory).iterdir())
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return reloaded, save_s, load_s, size

    def peak_rss_mb(self) -> float:
        """This process's high-water RSS plus that of every live pool
        child; call before :meth:`close`."""
        children = multiprocessing.active_children()
        total = _peak_kb("self") + sum(_peak_kb(child.pid) for child in children)
        return total / 1024.0

    def _stop_pool(self, reshard) -> None:
        """Run ``reshard`` (which releases the shard pool) and wait until
        the pool's workers have ended."""
        children = multiprocessing.active_children()
        reshard()
        # The pool reaps its own workers from a helper thread; waiting on
        # the sentinels observes their exit without racing that reaping.
        for child in children:
            if not multiprocessing.connection.wait([child.sentinel], timeout=30):
                child.kill()

    def use_inline_pool(self) -> None:
        """Same shard count, in-process pool."""
        self._stop_pool(
            lambda: self.platform.set_shards(self.platform.shards, pool="inline")
        )

    def close(self) -> None:
        self._stop_pool(self.platform.close)


def build_query(spec: dict) -> object:
    """The query object ``POST /search`` parses from ``spec``, built with
    the public query classes so the layers below the API can be called
    with the same parameters."""
    kind = spec["type"]
    if kind == "spatial":
        return SpatialQuery(
            region=BoundingBox.from_dict(spec["region"]),
            mode=spec.get("mode", "scene"),
            direction_deg=spec.get("direction_deg"),
        )
    if kind == "visual":
        return VisualQuery(
            extractor_name=spec["extractor"],
            vector=np.array(spec["vector"], dtype=np.float64),
            k=spec["k"],
        )
    if kind == "categorical":
        return CategoricalQuery(spec["classification"], tuple(spec["labels"]))
    if kind == "textual":
        return TextualQuery(spec["text"], spec["match"])
    if kind == "temporal":
        return TemporalQuery(spec["start"], spec["end"])
    return HybridQuery(tuple(build_query(sub) for sub in spec["queries"]))
