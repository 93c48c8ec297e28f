"""Ablation — "the larger and richer the dataset, the more accurate
the results" (paper Section I).

The platform's whole pitch is pooling data across participants.  This
bench trains the winning Fig. 6 configuration (SVM + CNN) on growing
shares of the corpus and reports held-out macro F1 — the curve that
justifies sharing.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.ml import LinearSVM, f1_score

TRAIN_SIZES = (25, 50, 100, 160)  # samples drawn from the 200-image corpus


def test_ablation_training_set_size(benchmark, matrices, capsys):
    X, y = matrices["cnn"]
    rng = np.random.default_rng(0)
    order = rng.permutation(len(y))
    test_idx = order[160:]
    X_test, y_test = X[test_idx], y[test_idx]

    def run():
        curve = []
        for size in TRAIN_SIZES:
            train_idx = order[:size]
            model = LinearSVM(epochs=40, seed=0).fit(X[train_idx], y[train_idx])
            curve.append((size, f1_score(y_test, model.predict(X_test))))
        return curve

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'training samples':>18}{'macro F1':>12}"
    rows = [f"{size:>18}{f1:>12.3f}" for size, f1 in curve]
    rows.append("")
    rows.append("(held-out test set of 40 images; SVM + CNN features)")
    print_table(capsys, "Ablation: F1 vs shared-dataset size", header, rows)

    first, last = curve[0][1], curve[-1][1]
    # More pooled data gives a clearly better model.
    assert last > first + 0.1
    # And the curve is broadly monotone (allowing small dips).
    for (_, a), (_, b) in zip(curve, curve[1:]):
        assert b >= a - 0.08
