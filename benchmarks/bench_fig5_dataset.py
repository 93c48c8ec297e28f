"""Fig. 5 — the street-cleanliness dataset itself.

The paper's Fig. 5 shows example images of the five classes from the
22K LASAN corpus.  This bench regenerates our synthetic stand-in and
prints its composition (class balance, spatial extent, capture span),
and measures generation throughput.
"""

from benchmarks.conftest import print_table
from repro.datasets import dataset_summary, generate_lasan_dataset


def test_fig5_dataset_composition(benchmark, capsys):
    records = benchmark.pedantic(
        lambda: generate_lasan_dataset(n_per_class=20, image_size=48, seed=0),
        rounds=1,
        iterations=1,
    )
    summary = dataset_summary(records)
    rows = [
        f"{'total images':<26}{summary['total']:>10}",
        f"{'image size':<26}{str(summary['image_size']):>10}",
        f"{'capture span (days)':<26}{summary['capture_span_s'] / 86400:>10.1f}",
    ]
    for label, count in summary["per_class"].items():
        rows.append(f"{'  ' + label:<26}{count:>10}")
    bbox = summary["bbox"]
    rows.append(
        f"{'geo bbox':<26}({bbox.min_lat:.3f},{bbox.min_lng:.3f})"
        f"..({bbox.max_lat:.3f},{bbox.max_lng:.3f})"
    )
    graffiti = sum(1 for r in records if r.has_graffiti)
    rows.append(f"{'graffiti overlay rate':<26}{graffiti / len(records):>10.2f}")
    print_table(
        capsys,
        "Fig. 5: synthetic LASAN dataset composition",
        f"{'property':<26}{'value':>10}",
        rows,
    )

    assert summary["total"] == 100
    assert len(summary["per_class"]) == 5
