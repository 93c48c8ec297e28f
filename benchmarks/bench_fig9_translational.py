"""Fig. 9 — translational data: cleanliness labels fuel other studies.

The paper's translational pipeline: the street-cleanliness classifier
machine-annotates the corpus; those annotations are then reused — with
no extra learning — by (a) the homeless study, which counts and
clusters encampment sightings, and (b) a graffiti study trained on the
*same* images for a different question.  This bench runs the whole
chain and prints the cluster table the homeless coordinator would see.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.analysis import cluster_encampments, run_graffiti_study
from repro.core import TVDP
from repro.features import ColorHistogramExtractor
from repro.imaging import CLEANLINESS_CLASSES
from repro.ml import LinearSVM


def test_fig9_translational_pipeline(benchmark, lasan_corpus, matrices, capsys):
    X, y = matrices["cnn"]
    n_train = int(0.6 * len(lasan_corpus))

    def run():
        platform = TVDP()
        platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
        # Analysis 1: cleanliness model (trained once, on the shared data).
        model = LinearSVM(epochs=40).fit(X[:n_train], y[:n_train])
        predictions = model.predict(X[n_train:])
        # Upload + machine-annotate the "new" images.
        for record, label in zip(lasan_corpus[n_train:], predictions):
            receipt = platform.upload_image(
                record.image, record.fov, record.captured_at, record.uploaded_at
            )
            platform.annotations.annotate(
                receipt.image_id,
                "street_cleanliness",
                str(label),
                confidence=0.9,
                source="machine",
                annotator="svm_cnn",
            )
        # Analysis 2 (translational, no learning): tent clustering.
        report = cluster_encampments(platform, eps_m=600.0, min_samples=2)
        return platform, report

    platform, report = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        f"{'encampment sightings':<28}{report.total_sightings:>8}",
        f"{'clusters found':<28}{report.n_clusters:>8}",
        f"{'noise sightings':<28}{report.noise_sightings:>8}",
    ]
    for cluster in report.clusters:
        rows.append(
            f"  cluster {cluster.cluster_id}: {cluster.size:>3} tents near "
            f"({cluster.centroid.lat:.4f}, {cluster.centroid.lng:.4f})"
        )

    # Analysis 3 (same dataset, different question): graffiti detection.
    graffiti, _, _ = run_graffiti_study(
        lasan_corpus, ColorHistogramExtractor(), seed=0
    )
    rows.append("")
    rows.append(
        f"graffiti study on the same corpus: macro F1 = {graffiti.f1:.3f} "
        f"(positives {graffiti.positive_rate:.0%})"
    )
    print_table(
        capsys,
        "Fig. 9: translational pipeline (cleanliness -> homeless + graffiti)",
        f"{'quantity':<28}{'value':>8}",
        rows,
    )

    # The encampment annotations exist and cluster spatially (hotspots).
    assert report.total_sightings > 0
    assert report.n_clusters >= 1
    assert report.largest_cluster_size >= 2
    # The translational consumer used annotations only — no pixels left
    # the platform, no second model was trained for the homeless study.
    histogram = platform.annotations.label_histogram("street_cleanliness")
    assert sum(histogram.values()) == len(lasan_corpus) - int(0.6 * len(lasan_corpus))
    # The graffiti study (independent question, same data) also learns.
    assert graffiti.f1 > 0.5
