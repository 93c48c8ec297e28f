"""Ablation — task-assignment algorithms at growing scale (ref [13]).

The paper cites its scalable-spatial-crowdsourcing study for the
distributed assignment strategy.  This bench measures the three
implemented strategies on growing instances: assignment runtime, travel
cost, and completion — the partitioned ("distributed") strategy should
approach greedy's quality at a fraction of its runtime as N grows.
"""

import time

import numpy as np

from benchmarks.conftest import PERF_ASSERTS, print_table, sized
from repro.crowd import Task, Worker, assign_greedy, assign_nearest, assign_partitioned
from repro.geo import BoundingBox, GeoPoint

REGION = BoundingBox(34.00, -118.34, 34.08, -118.26)
SIZES = sized(
    ((20, 60), (40, 120), (80, 240)), ((20, 60), (40, 120))
)  # (workers, tasks)


def make_instance(n_workers, n_tasks, seed):
    rng = np.random.default_rng(seed)

    def random_point():
        return GeoPoint(
            float(rng.uniform(REGION.min_lat, REGION.max_lat)),
            float(rng.uniform(REGION.min_lng, REGION.max_lng)),
        )

    workers = [Worker(worker_id=i + 1, location=random_point()) for i in range(n_workers)]
    tasks = [
        Task(task_id=i + 1, location=random_point(), direction_deg=None, campaign_id=1)
        for i in range(n_tasks)
    ]
    return workers, tasks


def test_ablation_assignment_scalability(benchmark, capsys):
    strategies = {
        "greedy": lambda w, t: assign_greedy(w, t, per_worker=5),
        "nearest": lambda w, t: assign_nearest(w, t, per_worker=5),
        "partitioned": lambda w, t: assign_partitioned(
            w, t, REGION, partitions=3, per_worker=5
        ),
    }

    def run():
        table = []
        for n_workers, n_tasks in SIZES:
            workers, tasks = make_instance(n_workers, n_tasks, seed=n_tasks)
            for name, strategy in strategies.items():
                t0 = time.perf_counter()
                result = strategy(workers, tasks)
                elapsed = time.perf_counter() - t0
                table.append(
                    (
                        n_workers,
                        n_tasks,
                        name,
                        elapsed,
                        len(result.assignments),
                        result.mean_distance_m,
                    )
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'workers':>8}{'tasks':>7}{'strategy':>14}{'time ms':>10}"
        f"{'assigned':>10}{'mean travel m':>15}"
    )
    rows = [
        f"{w:>8}{t:>7}{name:>14}{sec * 1000:>10.1f}{done:>10}{travel:>15.0f}"
        for w, t, name, sec, done, travel in table
    ]
    print_table(capsys, "Ablation: assignment strategies vs scale", header, rows)

    largest = {row[2]: row for row in table if row[1] == SIZES[-1][1]}

    # All strategies assign every task (capacity 5 x workers >= tasks).
    assert all(row[4] == SIZES[-1][1] for row in largest.values())
    # Partitioned is faster than global greedy at the largest size...
    if PERF_ASSERTS:
        assert largest["partitioned"][3] < largest["greedy"][3]
    # ...with travel quality within 2x of greedy.
    assert largest["partitioned"][5] <= 2.0 * largest["greedy"][5]
