"""Ablation — coverage-driven vs random task placement.

The acquisition loop targets measured coverage gaps.  The alternative —
spraying the same number of tasks at random locations — wastes captures
on already-covered cells.  Fixed task budget, compare final coverage.
"""

import numpy as np

from benchmarks.conftest import print_table, sized
from repro.crowd import (
    Campaign,
    Task,
    WorkerPool,
    assign_greedy,
    measure_coverage,
)
from repro.geo import DOWNTOWN_LA, GeoPoint


TASK_BUDGET = 60
GRID = (8, 8)
N_SEEDS = sized(3, 2)


def run_strategy(strategy: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pool = WorkerPool.spawn(10, DOWNTOWN_LA, seed=seed, camera_range_m=250.0)
    fovs = []
    issued = 0
    round_budget = 20
    while issued < TASK_BUDGET:
        report = measure_coverage(
            fovs, DOWNTOWN_LA, rows=GRID[0], cols=GRID[1], min_directions=1
        )
        n_tasks = min(round_budget, TASK_BUDGET - issued)
        if strategy == "coverage":
            campaign = Campaign(1, "x", DOWNTOWN_LA, min_directions=1)
            tasks = campaign.generate_tasks(report, max_tasks=n_tasks)
        else:
            tasks = [
                Task(
                    task_id=issued * 100 + k,
                    location=GeoPoint(
                        float(rng.uniform(DOWNTOWN_LA.min_lat, DOWNTOWN_LA.max_lat)),
                        float(rng.uniform(DOWNTOWN_LA.min_lng, DOWNTOWN_LA.max_lng)),
                    ),
                    direction_deg=None,
                    campaign_id=1,
                )
                for k in range(n_tasks)
            ]
        issued += len(tasks)
        result = assign_greedy(pool.workers, tasks, per_worker=round_budget)
        for match in result.assignments:
            fovs.append(match.worker.perform(match.task, rng))
    final = measure_coverage(
        fovs, DOWNTOWN_LA, rows=GRID[0], cols=GRID[1], min_directions=1
    )
    return final.coverage_ratio


def test_ablation_coverage_vs_random_tasks(benchmark, capsys):
    def run():
        coverage, random_placement = [], []
        for seed in range(N_SEEDS):
            coverage.append(run_strategy("coverage", seed))
            random_placement.append(run_strategy("random", seed))
        return float(np.mean(coverage)), float(np.mean(random_placement))

    cov_mean, rand_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'task placement':<22}{'final coverage':>16}"
    rows = [
        f"{'coverage-driven':<22}{cov_mean:>15.0%}",
        f"{'random':<22}{rand_mean:>15.0%}",
        "",
        f"(budget: {TASK_BUDGET} tasks over a {GRID[0]}x{GRID[1]} grid, "
        f"mean of {N_SEEDS} seeds)",
    ]
    print_table(
        capsys, "Ablation: coverage-driven vs random task placement", header, rows
    )
    assert cov_mean > rand_mean
