"""Fig. 1 — the full Acquisition-Access-Analysis-Action cycle.

The architecture figure is exercised functionally: one complete loop
through all four core services, from crowdsourced capture to an edge
dispatch decision, with per-stage wall-clock timing printed.
"""

import time

import numpy as np

from benchmarks.conftest import print_table
from repro.core import CategoricalQuery, TVDP
from repro.crowd import Campaign, WorkerPool, measure_coverage, run_iterative_campaign
from repro.edge import PAPER_DEVICES, PAPER_MODELS, dispatch_fleet
from repro.features import ColorHistogramExtractor
from repro.geo import DOWNTOWN_LA
from repro.imaging import CLEANLINESS_CLASSES, render_street_scene
from repro.ml import LinearSVM, StandardScaler


def test_fig1_full_cycle(benchmark, capsys):
    timings: dict[str, float] = {}

    def run():
        rng = np.random.default_rng(0)
        platform = TVDP()
        platform.register_extractor(ColorHistogramExtractor())
        platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))

        # 1) ACQUISITION: an iterative crowdsourcing campaign collects FOVs.
        t0 = time.perf_counter()
        campaign = Campaign(1, "lasan", DOWNTOWN_LA, target_coverage=0.6, min_directions=1)
        pool = WorkerPool.spawn(8, DOWNTOWN_LA, seed=0, camera_range_m=400.0)
        collected = run_iterative_campaign(
            campaign, pool, grid_rows=6, grid_cols=6, max_rounds=4, seed=0
        )
        # Workers' captures become labelled images (simulated scenes).
        labels = []
        image_ids = []
        for i, fov in enumerate(collected.fovs):
            label = CLEANLINESS_CLASSES[i % len(CLEANLINESS_CLASSES)]
            image = render_street_scene(label, rng, size=40)
            receipt = platform.upload_image(image, fov, float(i), float(i) + 60.0)
            image_ids.append(receipt.image_id)
            labels.append(label)
        timings["acquisition"] = time.perf_counter() - t0

        # 2) ACCESS: features extracted + indexed.
        t0 = time.perf_counter()
        features = platform.extract_features("color_hsv_20_20_10", image_ids)
        timings["access"] = time.perf_counter() - t0

        # 3) ANALYSIS: train, machine-annotate everything.
        t0 = time.perf_counter()
        X = StandardScaler().fit_transform(np.vstack([features[i] for i in image_ids]))
        y = np.array(labels)
        model = LinearSVM(epochs=25).fit(X, y)
        for image_id, label in zip(image_ids, model.predict(X)):
            platform.annotations.annotate(
                image_id, "street_cleanliness", str(label), 0.9, "machine"
            )
        encampments = platform.execute(
            CategoricalQuery("street_cleanliness", labels=("encampment",))
        )
        timings["analysis"] = time.perf_counter() - t0

        # 4) ACTION: dispatch capability-matched models to the edge fleet.
        t0 = time.perf_counter()
        decisions = dispatch_fleet(list(PAPER_DEVICES), list(PAPER_MODELS), 1_000.0)
        timings["action"] = time.perf_counter() - t0
        return platform, collected, encampments, decisions

    platform, collected, encampments, decisions = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        f"{'campaign coverage':<28}{collected.final_coverage:>10.0%}",
        f"{'images ingested':<28}{platform.stats()['rows']['images']:>10}",
        f"{'encampment annotations':<28}{len(encampments):>10}",
    ]
    for name, decision in sorted(decisions.items()):
        rows.append(f"{'  dispatch ' + name:<28}{decision.model.name:>16}")
    rows.append("")
    for stage, seconds in timings.items():
        rows.append(f"{'stage ' + stage:<28}{seconds * 1000:>8.0f} ms")
    print_table(
        capsys,
        "Fig. 1: full 4-A pipeline cycle",
        f"{'quantity':<28}{'value':>10}",
        rows,
    )

    assert collected.final_coverage >= 0.6
    assert platform.stats()["rows"]["images"] > 20
    assert len(encampments) > 0
    assert set(decisions) == {d.name for d in PAPER_DEVICES}
