"""Fig. 4 — the crowd-based learning framework, round by round.

The framework figure is exercised as a longitudinal experiment: a small
server-side seed pool, four rounds of edge batches arriving on a
heterogeneous fleet, prioritised selection under an upload budget, and
retraining.  The printed series is test accuracy + pool size + bytes
uploaded per round ("our experiments show that this approach can
efficiently upgrade the learning model").
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.edge import (
    PAPER_MODELS,
    RASPBERRY_PI,
    SMARTPHONE,
    CrowdLearningFramework,
    EdgeBatch,
)
from repro.ml import StandardScaler, train_test_split

SEED_POOL = 15
ROUNDS = 4


def test_fig4_crowd_learning_rounds(benchmark, matrices, capsys):
    X_all, y_all = matrices["cnn"]
    X_pool, X_test, y_pool, y_test = train_test_split(X_all, y_all, 0.3, seed=0)

    def run():
        framework = CrowdLearningFramework(
            model_variants=list(PAPER_MODELS),
            upload_budget=12,
            human_label_rate=0.6,
            seed=0,
        )
        framework.seed_pool(X_pool[:SEED_POOL], y_pool[:SEED_POOL])
        edge_X, edge_y = X_pool[SEED_POOL:], y_pool[SEED_POOL:]
        chunk = len(edge_X) // (2 * ROUNDS)
        for round_index in range(ROUNDS):
            lo = 2 * round_index * chunk
            batches = [
                EdgeBatch(SMARTPHONE, edge_X[lo : lo + chunk], edge_y[lo : lo + chunk]),
                EdgeBatch(
                    RASPBERRY_PI,
                    edge_X[lo + chunk : lo + 2 * chunk],
                    edge_y[lo + chunk : lo + 2 * chunk],
                ),
            ]
            framework.run_round(batches, X_test, y_test, latency_budget_ms=1_500.0)
        return framework

    framework = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'round':>6}{'accuracy':>12}{'pool':>8}{'uploaded':>10}{'kB':>10}"
        f"{'human':>8}"
    )
    rows = [
        f"{s.round_index:>6}{s.test_accuracy:>12.3f}{s.pool_size:>8}"
        f"{s.uploaded_samples:>10}{s.uploaded_bytes / 1e3:>10.1f}{s.human_labels:>8}"
        for s in framework.history
    ]
    first_dispatch = framework.history[0].dispatch
    rows.append("")
    for device, decision in sorted(first_dispatch.items()):
        rows.append(
            f"  {device:<20} got {decision.model.name} "
            f"({decision.predicted_latency_ms:.0f} ms predicted)"
        )
    print_table(capsys, "Fig. 4: crowd-based learning rounds", header, rows)

    history = framework.history

    assert len(history) == ROUNDS
    # The pool grows every round and accuracy ends at a useful level.
    pools = [s.pool_size for s in history]
    assert pools == sorted(pools) and pools[-1] > SEED_POOL
    assert history[-1].test_accuracy > 0.6
    # Heterogeneous dispatch: the RPI gets a lighter model than allowed
    # by an unconstrained pick (inception exceeds its 1.5 s budget).
    assert first_dispatch["raspberry_pi_3b+"].model.name != "inception_v3"
