"""Ablation — prioritised vs random edge data selection, and
feature-vs-raw-image upload cost.

Two design choices of the Action service (paper Section VI): the
"distributed selection algorithm that prioritizes the crowdsourced
data", and uploading locally-extracted feature vectors rather than raw
images.  Fixed upload budget: compare learning outcomes and bytes.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.edge import (
    MOBILENET_V2,
    SMARTPHONE,
    CrowdLearningFramework,
    EdgeBatch,
    compare_upload_strategies,
)
from repro.ml import train_test_split

SEED_POOL = 12
ROUNDS = 4
BUDGET = 10


def learning_curve(strategy, X_pool, y_pool, X_test, y_test):
    framework = CrowdLearningFramework(
        model_variants=[MOBILENET_V2],
        upload_budget=BUDGET,
        human_label_rate=1.0,
        strategy=strategy,
        seed=0,
    )
    framework.seed_pool(X_pool[:SEED_POOL], y_pool[:SEED_POOL])
    edge_X, edge_y = X_pool[SEED_POOL:], y_pool[SEED_POOL:]
    chunk = len(edge_X) // ROUNDS
    for r in range(ROUNDS):
        batch = EdgeBatch(
            SMARTPHONE, edge_X[r * chunk : (r + 1) * chunk], edge_y[r * chunk : (r + 1) * chunk]
        )
        framework.run_round([batch], X_test, y_test)
    return framework.history


def test_ablation_prioritized_vs_random_selection(benchmark, matrices, capsys):
    X_all, y_all = matrices["cnn"]
    X_pool, X_test, y_pool, y_test = train_test_split(X_all, y_all, 0.3, seed=1)

    def run():
        prioritized = learning_curve("prioritized", X_pool, y_pool, X_test, y_test)
        random_hist = learning_curve("random", X_pool, y_pool, X_test, y_test)
        return prioritized, random_hist

    prioritized, random_hist = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'round':>6}{'prioritized acc':>18}{'random acc':>14}{'bytes each':>12}"
    rows = [
        f"{p.round_index:>6}{p.test_accuracy:>18.3f}{r.test_accuracy:>14.3f}"
        f"{p.uploaded_bytes:>12}"
        for p, r in zip(prioritized, random_hist)
    ]
    final_p = np.mean([s.test_accuracy for s in prioritized[-2:]])
    final_r = np.mean([s.test_accuracy for s in random_hist[-2:]])
    rows.append("")
    rows.append(f"late-round mean: prioritized={final_p:.3f} random={final_r:.3f}")
    print_table(
        capsys,
        f"Ablation: edge selection strategy (budget {BUDGET}/round)",
        header,
        rows,
    )
    # Same bytes spent; prioritised selection should not lose.
    assert prioritized[-1].uploaded_bytes == random_hist[-1].uploaded_bytes
    assert final_p >= final_r - 0.05


def test_ablation_feature_vs_raw_upload(benchmark, matrices, capsys):
    dim = matrices["cnn"][0].shape[1]

    def run():
        return compare_upload_strategies(
            SMARTPHONE, n_items=BUDGET * ROUNDS, image_px=1024, feature_dim=dim
        )

    plans = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'payload':<14}{'MB total':>12}{'transfer s':>12}"
    rows = [
        f"{name:<14}{plan.total_bytes / 1e6:>12.2f}{plan.transfer_time_s:>12.1f}"
        for name, plan in plans.items()
    ]
    ratio = plans["raw_images"].total_bytes / plans["features"].total_bytes
    rows.append("")
    rows.append(f"feature upload is {ratio:.0f}x cheaper in bandwidth")
    print_table(
        capsys, "Ablation: raw-image vs feature-vector upload", header, rows
    )
    assert ratio > 50
