"""Fig. 6 — F1 of every (image feature, classifier) combination.

Paper result: CNN features dominate, SIFT-BoW is second, the colour
histogram trails; SVM is the strongest classifier, scoring 0.64 with
SIFT-BoW and 0.83 with CNN.  Absolute numbers here come from the
synthetic corpus, but the bench asserts the qualitative shape: for the
paper's winning classifier (SVM) the feature ordering
``cnn > sift_bow > color_histogram`` holds, and the best overall cell
uses CNN features.
"""

from benchmarks.conftest import print_table
from repro.analysis import DEFAULT_CLASSIFIERS, best_cell, run_classifier_grid


def test_fig6_feature_classifier_grid(benchmark, matrices, capsys):
    results = benchmark.pedantic(
        lambda: run_classifier_grid(matrices, DEFAULT_CLASSIFIERS, seed=0),
        rounds=1,
        iterations=1,
    )
    features = ["color_histogram", "sift_bow", "cnn"]
    classifiers = sorted({r.classifier for r in results})
    grid = {(r.feature, r.classifier): r.f1 for r in results}

    header = f"{'classifier':<22}" + "".join(f"{f:>18}" for f in features)
    rows = [
        f"{clf:<22}" + "".join(f"{grid[(f, clf)]:>18.3f}" for f in features)
        for clf in classifiers
    ]
    best = best_cell(results)
    rows.append("")
    rows.append(
        f"best: {best.classifier} + {best.feature} (macro F1 = {best.f1:.3f}) "
        f"[paper: svm + cnn = 0.83]"
    )
    print_table(capsys, "Fig. 6: feature x classifier macro F1", header, rows)

    # Shape assertions (paper's qualitative findings).
    assert grid[("cnn", "svm")] > grid[("sift_bow", "svm")]
    assert grid[("sift_bow", "svm")] > grid[("color_histogram", "svm")]
    assert best.feature == "cnn"
    assert grid[("cnn", "svm")] > 0.7  # paper: 0.83
