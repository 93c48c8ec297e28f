"""Ablation — index structures vs linear scans.

The paper justifies its index suite (Section IV-C): LSH for visual
queries, R-tree family for spatial, and the hybrid Visual R*-tree for
spatial-visual queries.  This bench measures each against the obvious
baseline at growing N, checking both the win and result fidelity.
"""

import time

import numpy as np

from benchmarks.conftest import PERF_ASSERTS, print_table, probe_counters, sized
from repro.geo import BoundingBox, GeoPoint
from repro.index import GridIndex, LSHIndex, RTree, VisualRTree

REGION = BoundingBox(33.9, -118.5, 34.1, -118.3)
DIM = 64
N_QUERIES = 50
# Up to 32,000: the exact scan is one dot product per row, and hashing
# only starts to beat it in the thousands.
LSH_SIZES = sized((500, 2_000, 8_000, 32_000), (500, 2_000))
HYBRID_SIZES = sized((500, 2_000), (500,))
RTREE_N = sized(5_000, 2_000)


def dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    points = [
        GeoPoint(
            float(rng.uniform(REGION.min_lat, REGION.max_lat)),
            float(rng.uniform(REGION.min_lng, REGION.max_lng)),
        )
        for _ in range(n)
    ]
    vectors = rng.normal(0, 1, (n, DIM))
    return points, vectors


def clustered_vectors(n, seed=0, cluster_size=20, spread=0.15):
    """Near-duplicate-rich corpus: street imagery contains many shots of
    the same scenes, which is exactly the structure LSH exploits."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (max(n // cluster_size, 1), DIM))
    assignment = rng.integers(0, centers.shape[0], n)
    return centers[assignment] + spread * rng.normal(0, 1, (n, DIM))


def test_ablation_lsh_vs_linear(benchmark, capsys, bench_record):
    def run():
        table = []
        for n in LSH_SIZES:
            vectors = clustered_vectors(n)
            lsh = LSHIndex(dimension=DIM, n_tables=8, n_projections=6, bucket_width=8.0, seed=0)
            for i in range(n):
                lsh.insert(i, vectors[i])
            queries = vectors[:N_QUERIES] + 0.05 * np.random.default_rng(1).normal(
                0, 1, (N_QUERIES, DIM)
            )
            probes: dict = {}
            t0 = time.perf_counter()
            with probe_counters(probes):
                approx = [lsh.query_topk(q, k=10) for q in queries]
            lsh_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            exact = [lsh.linear_topk(q, k=10) for q in queries]
            linear_s = time.perf_counter() - t0
            recall = np.mean(
                [
                    len({i for i, _ in a} & {i for i, _ in e}) / 10.0
                    for a, e in zip(approx, exact)
                ]
            )
            cand_per_q = probes.get("index.lsh.candidates", 0) / N_QUERIES
            table.append((n, lsh_s, linear_s, recall, cand_per_q))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'N':>8}{'LSH':>14}{'linear':>14}{'speedup':>10}"
        f"{'recall@10':>12}{'cand/query':>12}"
    )
    rows = [
        f"{n:>8}{a * 1000:>11.1f} ms{b * 1000:>11.1f} ms{b / a:>9.1f}x"
        f"{r:>12.2f}{c:>12.1f}"
        for n, a, b, r, c in table
    ]
    print_table(capsys, "Ablation: LSH vs linear scan (visual top-10)", header, rows)
    bench_record["results"] = {
        "sizes": list(LSH_SIZES),
        "recall_at_10": [round(r, 3) for *_, r, _ in table],
        "candidates_per_query": [round(c, 1) for *_, c in table],
    }
    # LSH wins at scale with high recall.
    if PERF_ASSERTS:
        assert table[-1][1] < table[-1][2]
    assert all(row[3] >= 0.8 for row in table)


def scene_dataset(n, seed=2, cluster_size=20, spread=0.15):
    """Repeated shots of the same scenes: each cluster shares a location
    (plus GPS jitter) and a visual appearance (plus noise) — the regime
    the Visual R*-tree's node feature-spheres are designed for."""
    rng = np.random.default_rng(seed)
    n_scenes = max(n // cluster_size, 1)
    scene_locs = np.column_stack(
        [
            rng.uniform(REGION.min_lat, REGION.max_lat, n_scenes),
            rng.uniform(REGION.min_lng, REGION.max_lng, n_scenes),
        ]
    )
    scene_vecs = rng.normal(0, 1, (n_scenes, DIM))
    assignment = rng.integers(0, n_scenes, n)
    points = [
        GeoPoint(
            float(np.clip(scene_locs[s, 0] + rng.normal(0, 1e-4), REGION.min_lat, REGION.max_lat)),
            float(np.clip(scene_locs[s, 1] + rng.normal(0, 1e-4), REGION.min_lng, REGION.max_lng)),
        )
        for s in assignment
    ]
    vectors = scene_vecs[assignment] + spread * rng.normal(0, 1, (n, DIM))
    return points, vectors


def test_ablation_hybrid_vs_linear(benchmark, capsys, bench_record):
    def run():
        table = []
        for n in HYBRID_SIZES:
            points, vectors = scene_dataset(n, seed=2)
            hybrid = VisualRTree(dimension=DIM, max_entries=8)
            for i in range(n):
                hybrid.insert(i, points[i], vectors[i])
            rng = np.random.default_rng(3)
            queries = []
            for _ in range(N_QUERIES):
                lat = float(rng.uniform(REGION.min_lat, REGION.max_lat - 0.05))
                lng = float(rng.uniform(REGION.min_lng, REGION.max_lng - 0.05))
                queries.append(
                    (BoundingBox(lat, lng, lat + 0.05, lng + 0.05), vectors[rng.integers(n)])
                )
            probes: dict = {}
            t0 = time.perf_counter()
            with probe_counters(probes):
                fast = [hybrid.spatial_visual_knn(b, v, k=10) for b, v in queries]
            fast_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            slow = [hybrid.linear_spatial_visual_knn(b, v, k=10) for b, v in queries]
            slow_s = time.perf_counter() - t0
            for a, b in zip(fast, slow):
                assert [i for i, _ in a] == [i for i, _ in b]
            pops_per_q = probes.get("index.visual_rtree.heap_pops", 0) / N_QUERIES
            pruned_per_q = probes.get("index.visual_rtree.spatial_pruned", 0) / N_QUERIES
            table.append((n, fast_s, slow_s, pops_per_q, pruned_per_q))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'N':>8}{'Visual R*-tree':>18}{'linear':>14}{'speedup':>10}"
        f"{'pops/query':>12}{'pruned/query':>14}"
    )
    rows = [
        f"{n:>8}{a * 1000:>15.1f} ms{b * 1000:>11.1f} ms{b / a:>9.1f}x"
        f"{pops:>12.1f}{pruned:>14.1f}"
        for n, a, b, pops, pruned in table
    ]
    print_table(
        capsys, "Ablation: hybrid index vs scan (spatial-visual top-10)", header, rows
    )
    bench_record["results"] = {
        "sizes": list(HYBRID_SIZES),
        "heap_pops_per_query": [round(p, 1) for _, _, _, p, _ in table],
        "spatial_pruned_per_query": [round(p, 1) for *_, p in table],
    }
    if PERF_ASSERTS:
        assert table[-1][1] < table[-1][2]


def test_ablation_rtree_vs_grid_vs_scan(benchmark, capsys, bench_record):
    def run():
        n = RTREE_N
        points, _ = dataset(n, seed=4)
        rtree = RTree(max_entries=8)
        grid = GridIndex(REGION, rows=32, cols=32)
        for i, p in enumerate(points):
            rtree.insert_point(i, p)
            grid.insert(i, p)
        rng = np.random.default_rng(5)
        queries = []
        for _ in range(200):
            lat = float(rng.uniform(REGION.min_lat, REGION.max_lat - 0.02))
            lng = float(rng.uniform(REGION.min_lng, REGION.max_lng - 0.02))
            queries.append(BoundingBox(lat, lng, lat + 0.02, lng + 0.02))

        probes: dict = {}
        t0 = time.perf_counter()
        with probe_counters(probes):
            rtree_hits = [set(rtree.search_range(q)) for q in queries]
        rtree_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        grid_hits = [set(grid.search_range(q)) for q in queries]
        grid_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        scan_hits = [
            {i for i, p in enumerate(points) if q.contains_point(p)} for q in queries
        ]
        scan_s = time.perf_counter() - t0
        for a, b, c in zip(rtree_hits, grid_hits, scan_hits):
            assert a == c and b == c
        visits_per_q = probes.get("index.rtree.node_visits", 0) / len(queries)
        return rtree_s, grid_s, scan_s, visits_per_q

    rtree_s, grid_s, scan_s, visits_per_q = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    header = f"{'method':<16}{'time':>12}{'vs scan':>10}{'visits/query':>14}"
    rows = [
        f"{'r-tree':<16}{rtree_s * 1000:>9.1f} ms{scan_s / rtree_s:>9.1f}x"
        f"{visits_per_q:>14.1f}",
        f"{'uniform grid':<16}{grid_s * 1000:>9.1f} ms{scan_s / grid_s:>9.1f}x",
        f"{'linear scan':<16}{scan_s * 1000:>9.1f} ms{1.0:>9.1f}x",
    ]
    print_table(
        capsys,
        f"Ablation: spatial range query, N={RTREE_N}, 200 queries",
        header,
        rows,
    )
    bench_record["results"] = {
        "n": RTREE_N,
        "rtree_visits_per_query": round(visits_per_q, 1),
    }
    if PERF_ASSERTS:
        assert rtree_s < scan_s and grid_s < scan_s
