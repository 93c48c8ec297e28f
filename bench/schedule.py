"""Workload schedules: pure functions of the seed.

A schedule is the list of request payloads a workload sends, in order.
Its sha256 digest is printed with the results, so two runs that claim
the same inputs can prove it.  The program under test receives only
these payloads.

Within one workload every family draws from one unimodal parameter
distribution: a family that mixed cheap and expensive shapes would put
its median on the boundary between the two, where it does not repeat.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.features import ColorHistogramExtractor
from repro.imaging import Image

from bench import corpus

FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")
HOT_SET = 64
REPEAT_SHARE = 0.2
REUPLOAD_SHARE = 0.05
EXAMPLE_POOL = 256


@dataclass(frozen=True)
class Sizes:
    """Corpus and schedule sizes of one benchmark profile."""

    corpus: int
    ingest_base: int
    select_requests: int
    broad_requests: int
    sharded_requests: int
    ingest_cycles: int
    ingest_cycles_per_s: int  # ingest_mix times this many cycles per --seconds


#: The contract's run-time cap (4 + 22 x 4 runs in 3420 s, set-up
#: included) fits a 4,000-image corpus, not ISSUE.md's 8,000: ingest
#: through the API plus a 4-shard repartition of 8,000 images alone
#: takes 25 s here.  Read-only schedules hold about three times what a
#: 10 s run consumes at the seed's speed, so a faster program still finds
#: requests to serve.  ``ingest_mix`` grows its corpus as it runs, so it
#: times a fixed number of cycles (300 per ``--seconds``: what the seed
#: commit serves in that time), never as many as happen to fit.
FULL = Sizes(
    corpus=4000,
    ingest_base=1000,
    select_requests=20000,
    broad_requests=6000,
    sharded_requests=8000,
    ingest_cycles=6000,
    ingest_cycles_per_s=300,
)
QUICK = Sizes(
    corpus=500,
    ingest_base=125,
    select_requests=600,
    broad_requests=240,
    sharded_requests=300,
    ingest_cycles=240,
    ingest_cycles_per_s=240,
)


def digest(payloads: list) -> str:
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def example_vectors(seed: int, n_corpus: int) -> list[list[float]]:
    """Query-by-example vectors: the features of a seeded pool of corpus
    images, so every visual query has an exact match to be checked."""
    rng = _rng(seed, "examples")
    extractor = ColorHistogramExtractor()
    out = []
    for index in rng.sample(range(n_corpus), min(EXAMPLE_POOL, n_corpus)):
        pixels = corpus.capture(seed, index).pixels_u8
        out.append(extractor.extract(Image.from_uint8(pixels)).tolist())
    return out


def _box(rng: random.Random, side_deg: float) -> dict:
    span = corpus.GRID * corpus.DISTRICT_DEG - side_deg
    lat = corpus.LAT0 + rng.random() * span
    lng = corpus.LNG0 + rng.random() * span
    return {
        "min_lat": lat,
        "min_lng": lng,
        "max_lat": lat + side_deg,
        "max_lng": lng + side_deg,
    }


def _visual(rng: random.Random, vectors: list, k: int) -> dict:
    return {
        "type": "visual",
        "extractor": corpus.EXTRACTOR,
        "vector": rng.choice(vectors),
        "k": k,
    }


def select_spec(rng: random.Random, family: str, vectors: list) -> dict:
    """Selective parameters: a handful of results per query, so index
    probes and the fixed per-request cost do most of the work."""
    if family == "spatial":
        return {
            "type": "spatial",
            "region": _box(rng, 0.02),
            "mode": "scene",
            "direction_deg": float(rng.randrange(0, 360, 45)),
        }
    if family == "visual":
        return _visual(rng, vectors, 10)
    if family == "categorical":
        return {
            "type": "categorical",
            "classification": "district",
            "labels": [f"d{rng.randrange(corpus.N_DISTRICTS)}"],
        }
    if family == "textual":
        return {
            "type": "textual",
            "text": f"district{rng.randrange(corpus.N_DISTRICTS)} "
            f"kw{rng.randrange(corpus.N_KEYWORDS)}",
            "match": "all",
        }
    if family == "temporal":
        start = rng.random() * (corpus.N_DISTRICTS * corpus.WAVE_S - 50.0)
        return {"type": "temporal", "start": start, "end": start + 50.0}
    return {
        "type": "hybrid",
        "queries": [
            {"type": "spatial", "region": _box(rng, corpus.DISTRICT_DEG)},
            _visual(rng, vectors, 10),
        ],
    }


def broad_spec(rng: random.Random, family: str, vectors: list) -> dict:
    """Broad parameters: about a quarter of the corpus per query, so row
    access and result materialisation dominate."""
    two_districts = 2 * corpus.DISTRICT_DEG
    if family == "spatial":
        return {
            "type": "spatial",
            "region": _box(rng, two_districts),
            "mode": "camera",
        }
    if family == "visual":
        return _visual(rng, vectors, 100)
    if family == "categorical":
        districts = rng.sample(range(corpus.N_DISTRICTS), 4)
        return {
            "type": "categorical",
            "classification": "district",
            "labels": [f"d{d}" for d in sorted(districts)],
        }
    if family == "textual":
        a, b = rng.sample(range(corpus.N_DISTRICTS), 2)
        return {
            "type": "textual",
            "text": f"district{a} district{b} kw{rng.randrange(corpus.N_KEYWORDS)}",
            "match": "any",
        }
    if family == "temporal":
        start = rng.random() * (corpus.N_DISTRICTS - 4) * corpus.WAVE_S
        return {"type": "temporal", "start": start, "end": start + 4 * corpus.WAVE_S}
    return {
        "type": "hybrid",
        "queries": [
            {"type": "spatial", "region": _box(rng, two_districts)},
            _visual(rng, vectors, 100),
        ],
    }


def select_searches(seed: int, count: int, vectors: list) -> tuple[list[dict], int]:
    """``serial_select``'s schedule and how many entries are repeats:
    uniform over the six families, 20 % exact repeats drawn zipfian from
    a 64-request hot set (a dashboard refreshing)."""
    rng = _rng(seed, "select")
    hot = [select_spec(rng, rng.choice(FAMILIES), vectors) for _ in range(HOT_SET)]
    weights = [1.0 / rank for rank in range(1, HOT_SET + 1)]
    out, repeats = [], 0
    for _ in range(count):
        if rng.random() < REPEAT_SHARE:
            out.append(rng.choices(hot, weights)[0])
            repeats += 1
        else:
            out.append(select_spec(rng, rng.choice(FAMILIES), vectors))
    return out, repeats


def broad_searches(seed: int, count: int, vectors: list) -> list[dict]:
    rng = _rng(seed, "broad")
    return [broad_spec(rng, rng.choice(FAMILIES), vectors) for _ in range(count)]


@dataclass(frozen=True)
class WriteCycle:
    """One ``ingest_mix`` cycle: an upload with its annotations and
    feature request, then one selective search."""

    capture: corpus.Capture
    reupload: bool
    search: dict

    def payload(self) -> dict:
        return {
            "upload": corpus.upload_body(self.capture),
            "annotations": corpus.annotation_bodies(self.capture),
            "search": self.search,
        }


def write_cycles(
    seed: int, base: int, count: int, vectors: list
) -> list[WriteCycle]:
    """Cycles that continue the corpus stream after ``base`` images;
    5 % re-send an earlier image byte for byte (the dedup path, which
    answers 200, not an error); searches go round the six families."""
    rng = _rng(seed, "ingest")
    out = []
    next_index = base
    for j in range(count):
        reupload = rng.random() < REUPLOAD_SHARE
        if reupload:
            index = rng.randrange(next_index)
        else:
            index = next_index
            next_index += 1
        search = select_spec(rng, FAMILIES[j % len(FAMILIES)], vectors)
        out.append(WriteCycle(corpus.capture(seed, index), reupload, search))
    return out
