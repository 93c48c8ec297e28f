"""Fig. 3 — the FOV model at work: directional spatial search.

The FOV figure is exercised as a query workload: N sector-tagged images
in the Oriented R-tree, range and directional range queries, with the
index's throughput compared against a brute-force scan at several
corpus sizes (who wins, and how the margin grows with N).
"""

import time

import numpy as np

from benchmarks.conftest import PERF_ASSERTS, print_table, probe_counters, sized
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.index import OrientedRTree

REGION = (33.9, -118.5, 34.1, -118.3)
SIZES = sized((200, 800, 2_000), (200, 800))
N_QUERIES = 40
#: Each side is timed as its fastest of this many runs of the queries: at
#: N=200 the tree answers 40 queries in 1-2 ms, so one run is mostly noise.
REPEATS = 5


def make_fovs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FieldOfView(
            GeoPoint(
                float(rng.uniform(REGION[0], REGION[2])),
                float(rng.uniform(REGION[1], REGION[3])),
            ),
            float(rng.uniform(0, 360)),
            60.0,
            float(rng.uniform(50, 250)),
        )
        for _ in range(n)
    ]


def make_queries(seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(N_QUERIES):
        lat = float(rng.uniform(REGION[0], REGION[2] - 0.02))
        lng = float(rng.uniform(REGION[1], REGION[3] - 0.02))
        out.append(
            (BoundingBox(lat, lng, lat + 0.02, lng + 0.02), float(rng.uniform(0, 360)))
        )
    return out


def fastest(run):
    """``run()``'s result and its fastest time of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_fig3_oriented_queries_vs_scan(benchmark, capsys):
    queries = make_queries()

    def run():
        table = []
        for n in SIZES:
            fovs = make_fovs(n)
            index = OrientedRTree(max_entries=8)
            for i, fov in enumerate(fovs):
                index.insert(i, fov)

            probes: dict = {}
            with probe_counters(probes):
                indexed_hits, indexed_s = fastest(lambda: [
                    index.search_range(box, direction_deg=direction, tolerance_deg=30.0)
                    for box, direction in queries
                ])

            scan_hits, scan_s = fastest(lambda: [
                [
                    i
                    for i, fov in enumerate(fovs)
                    if fov.direction_matches(direction, 30.0)
                    and fov.intersects_box(box)
                ]
                for box, direction in queries
            ])

            for a, b in zip(indexed_hits, scan_hits):
                assert set(a) == set(b)
            cand_per_q = probes.get("index.oriented.candidates", 0) / (N_QUERIES * REPEATS)
            pruned_per_q = probes.get("index.oriented.mask_pruned", 0) / (N_QUERIES * REPEATS)
            table.append((n, indexed_s, scan_s, cand_per_q, pruned_per_q))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'N':>8}{'oriented R-tree':>20}{'linear scan':>18}{'speedup':>12}"
        f"{'cand/query':>12}{'pruned/query':>14}"
    )
    rows = [
        f"{n:>8}{idx * 1000:>17.1f} ms{scan * 1000:>15.1f} ms{scan / idx:>11.1f}x"
        f"{cand:>12.1f}{pruned:>14.1f}"
        for n, idx, scan, cand, pruned in table
    ]
    print_table(
        capsys,
        f"Fig. 3: directional FOV queries ({N_QUERIES} queries)",
        header,
        rows,
    )

    speedups = [scan / idx for _, idx, scan, *_ in table]

    # Index wins clearly at every size, decisively at the largest N.
    # (Strict monotonicity in N is too timing-noise-sensitive to assert.)
    if PERF_ASSERTS:
        assert all(s > 2.0 for s in speedups)
        assert speedups[-1] > 10.0
