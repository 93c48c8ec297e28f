"""Scale-out — speedup vs shard count on the geo-tile partitioned catalog.

The scatter-gather engine's pitch on a city-scale catalog is **work
reduction**: the planner prunes shards whose statistics prove they
cannot contribute (spatial bounds, time ranges, posting counts,
annotation-type counts), so a well-localised query touches one shard's
slice instead of the whole catalog.  This bench builds a corpus whose
timestamps are correlated with its geo-tiles (the smart-city shape:
districts are instrumented in waves, cameras in one area come online
together), runs a pruning-friendly, temporal-heavy query mix through
``execute_many`` at shard counts 1/2/4/8 (shards execute in the
coordinator process, so any speedup is pruning, not parallelism), and
records the speedup curve.  No speedup is gated: what sharding costs
or buys is measured by ``python -m bench``, ``sharded_select`` against
``serial_select`` (``docs/sharding.md``, "What a dispatch costs").
"""

import time

import numpy as np

from benchmarks.conftest import PERF_ASSERTS, print_table, sized
from repro.core import (
    CategoricalQuery,
    SpatialQuery,
    TemporalQuery,
    TextualQuery,
    TVDP,
)
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.imaging import Image

REGION = BoundingBox(34.00, -118.50, 34.40, -118.10)
#: Geo-tile lattice: 16 "districts", each with its own time wave.
TILE_ROWS, TILE_COLS = 4, 4
N_DISTRICTS = TILE_ROWS * TILE_COLS
#: Seconds of capture time per district wave.
WAVE_S = 1000.0
SHARD_COUNTS = (2, 4, 8)


def _district_box(district: int) -> BoundingBox:
    row, col = divmod(district, TILE_COLS)
    lat_step = (REGION.max_lat - REGION.min_lat) / TILE_ROWS
    lng_step = (REGION.max_lng - REGION.min_lng) / TILE_COLS
    return BoundingBox(
        REGION.min_lat + row * lat_step,
        REGION.min_lng + col * lng_step,
        REGION.min_lat + (row + 1) * lat_step,
        REGION.min_lng + (col + 1) * lng_step,
    )


def _build_corpus(n_images: int) -> TVDP:
    """A platform whose districts light up in successive time waves."""
    rng = np.random.default_rng(11)
    platform = TVDP(shard_grid=(TILE_ROWS, TILE_COLS))
    platform.catalog.define(
        "district", [f"d{d}" for d in range(N_DISTRICTS)]
    )
    for i in range(n_images):
        district = i % N_DISTRICTS
        box = _district_box(district)
        lat = float(rng.uniform(box.min_lat + 1e-4, box.max_lat - 1e-4))
        lng = float(rng.uniform(box.min_lng + 1e-4, box.max_lng - 1e-4))
        captured = district * WAVE_S + float(rng.uniform(0.0, WAVE_S - 1.0))
        pixel = np.full((1, 1, 3), (i + 1) / (n_images + 1))
        receipt = platform.upload_image(
            image=Image(pixel),
            fov=FieldOfView(GeoPoint(lat, lng), float(i * 37 % 360), 60.0, 120.0),
            captured_at=captured,
            uploaded_at=captured + 5.0,
            keywords=(f"district{district}", "street"),
        )
        platform.annotations.annotate(
            receipt.image_id,
            "district",
            f"d{district}",
            confidence=0.9,
            source="machine",
        )
    return platform


def _workload(rounds: int) -> list:
    """Temporal-heavy, per-district query mix (all prunable families)."""
    queries: list = []
    for _ in range(rounds):
        for district in range(N_DISTRICTS):
            start = district * WAVE_S
            queries.append(TemporalQuery(start=start, end=start + WAVE_S / 2))
            queries.append(
                TemporalQuery(start=start + WAVE_S / 4, end=start + WAVE_S - 1)
            )
            queries.append(
                TemporalQuery(
                    start=start, end=start + WAVE_S, field="timestamp_uploading"
                )
            )
            queries.append(
                TemporalQuery(start=start + WAVE_S / 2, end=start + WAVE_S * 0.9)
            )
            queries.append(SpatialQuery(region=_district_box(district)))
            queries.append(
                CategoricalQuery(
                    classification="district",
                    labels=(f"d{district}",),
                    min_confidence=0.5,
                )
            )
            queries.append(TextualQuery(text=f"district{district}", match="any"))
    return queries


def test_shard_scaling(benchmark, capsys, bench_record):
    n_images = sized(2400, 240)
    rounds = sized(4, 1)
    platform = _build_corpus(n_images)
    queries = _workload(rounds)

    def timed_batch() -> float:
        t0 = time.perf_counter()
        platform.execute_many(queries)
        return time.perf_counter() - t0

    def run():
        walls: dict[str, float] = {}
        partition_walls: dict[str, float] = {}
        serial_results = platform.execute_many(queries)  # warmup
        walls["serial"] = timed_batch()
        for n in SHARD_COUNTS:
            platform.set_shards(n)
            t0 = time.perf_counter()
            sharded_results = platform.execute_many(queries)  # partition + warmup
            partition_walls[f"shards x{n}"] = time.perf_counter() - t0
            assert sharded_results == serial_results, f"equivalence broke at {n}"
            walls[f"shards x{n}"] = timed_batch()
        platform.set_shards(1)
        return walls, partition_walls

    walls, partition_walls = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_wall = walls["serial"]
    speedups = {
        label: serial_wall / wall for label, wall in walls.items() if wall > 0
    }

    header = f"{'configuration':<16}{'wall s':>10}{'speedup':>10}{'1st batch s':>13}"
    rows = [
        f"{label:<16}{walls[label]:>10.3f}{speedups.get(label, 0.0):>10.2f}"
        f"{partition_walls.get(label, 0.0):>13.3f}"
        for label in walls
    ]
    rows.append("")
    rows.append(
        f"corpus: {n_images} images, {N_DISTRICTS} districts, "
        f"{len(queries)} queries/batch (1st batch includes partition build)"
    )
    print_table(
        capsys,
        "Scale-out: scatter-gather speedup vs shard count (1 core)",
        header,
        rows,
    )

    suffix = "" if PERF_ASSERTS else "_smoke"
    bench_record["results"] = {
        "serial_wall_s": round(serial_wall, 4),
        f"speedup_at_2{suffix}": round(speedups["shards x2"], 3),
        f"speedup_at_4{suffix}": round(speedups["shards x4"], 3),
        f"speedup_at_8{suffix}": round(speedups["shards x8"], 3),
    }
    if PERF_ASSERTS:
        # More shards must not get slower than fewer on this workload.
        assert speedups["shards x8"] > speedups["shards x2"] * 0.8
