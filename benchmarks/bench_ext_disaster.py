"""Extension bench — the disaster data platform (paper Section VIII).

The paper's future work: TVDP as a wildfire drone-monitoring platform.
Measures the full chain (survey -> detection -> situation awareness ->
spread estimation) and checks that the estimated spread rate recovers
the simulated ground truth.
"""

from benchmarks.conftest import print_table
from repro.analysis import (
    WildfireGroundTruth,
    detect_events,
    detection_quality,
    estimate_spread,
    fly_survey,
    situation_report,
)
from repro.geo import BoundingBox, GeoPoint

REGION = BoundingBox(34.10, -118.40, 34.14, -118.36)
TRUE_GROWTH_MPS = 0.5


def test_ext_wildfire_monitoring(benchmark, capsys):
    truth = WildfireGroundTruth(
        ignitions=[GeoPoint(34.12, -118.38)],
        growth_mps=TRUE_GROWTH_MPS,
        initial_radius_m=250.0,
    )

    def run():
        sweep1 = fly_survey(REGION, truth, start_time=0.0, rows=6, seed=0)
        events1 = detect_events(sweep1)
        report1 = situation_report(REGION, events1)
        sweep2 = fly_survey(REGION, truth, start_time=3_600.0, rows=6, seed=0)
        events2 = detect_events(sweep2)
        report2 = situation_report(REGION, events2)
        quality = detection_quality(sweep1, events1)
        spread = estimate_spread(report1, report2, dt_s=3_600.0)
        return sweep1, report1, report2, quality, spread

    sweep1, report1, report2, quality, spread = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        f"{'tiles per sweep':<30}{len(sweep1):>10}",
        f"{'fire recall (sweep 1)':<30}{quality['recall']:>10.0%}",
        f"{'fire precision (sweep 1)':<30}{quality['precision']:>10.0%}",
        f"{'burning cells t=0':<30}{report1.burning_cells:>10}",
        f"{'burning cells t=+1h':<30}{report2.burning_cells:>10}",
        f"{'estimated front growth':<30}{spread['front_growth_mps']:>8.2f} m/s",
        f"{'ground-truth growth':<30}{TRUE_GROWTH_MPS:>8.2f} m/s",
    ]
    print_table(
        capsys,
        "Extension: drone wildfire monitoring",
        f"{'quantity':<30}{'value':>10}",
        rows,
    )

    assert quality["recall"] > 0.6
    assert quality["precision"] > 0.8
    assert report2.burning_cells > report1.burning_cells
    # The spread estimate recovers the simulated growth within 2x.
    assert 0.5 * TRUE_GROWTH_MPS < spread["front_growth_mps"] < 2.0 * TRUE_GROWTH_MPS
