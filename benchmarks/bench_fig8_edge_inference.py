"""Fig. 8 — inference time vs model on desktop / Raspberry Pi / phone.

Paper result (log10 ms scale): desktops need tens of milliseconds for
every model; the RPI needs thousands in most cases and "on average is
1.5x order of magnitude slower compared to desktop class devices"; the
smartphone sits in between.  Our device cost models are calibrated to
the published FLOPs of MobileNetV1/V2 and InceptionV3, so the grid
reproduces the ratio structure exactly.
"""

import math

import numpy as np

from benchmarks.conftest import print_table
from repro.edge import PAPER_DEVICES, PAPER_MODELS, predicted_latency_ms

#: Input resolutions swept in the paper ("models with various
#: complexities and image sizes").
IMAGE_SIZES = (128, 224, 299)


def test_fig8_inference_time_grid(benchmark, capsys):
    def run():
        grid = {}
        for model in PAPER_MODELS:
            for device in PAPER_DEVICES:
                for px in IMAGE_SIZES:
                    grid[(model.name, device.name, px)] = predicted_latency_ms(
                        device, model, input_px=px
                    )
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)

    header = f"{'model @ px':<22}" + "".join(
        f"{d.name:>22}" for d in PAPER_DEVICES
    )
    rows = []
    for model in PAPER_MODELS:
        for px in IMAGE_SIZES:
            cells = []
            for device in PAPER_DEVICES:
                ms = grid[(model.name, device.name, px)]
                cells.append(f"{ms:>12.1f} ({math.log10(ms):4.2f})")
            rows.append(f"{model.name + ' @' + str(px):<22}" + "".join(f"{c:>22}" for c in cells))
    ratios = [
        grid[(m.name, "raspberry_pi_3b+", px)] / grid[(m.name, "desktop", px)]
        for m in PAPER_MODELS
        for px in IMAGE_SIZES
    ]
    rows.append("")
    rows.append(
        f"mean RPI/desktop slowdown: {np.mean([math.log10(r) for r in ratios]):.2f} "
        "orders of magnitude (paper: ~1.5)"
    )
    print_table(capsys, "Fig. 8: inference time ms (log10)", header, rows)

    # Shape assertions from the paper.
    desktop_at_native = [
        grid[(m.name, "desktop", 224 if "mobilenet" in m.name else 299)]
        for m in PAPER_MODELS
    ]
    assert all(ms < 100.0 for ms in desktop_at_native)  # "tens of ms"
    rpi_heavy = grid[("inception_v3", "raspberry_pi_3b+", 299)]
    assert rpi_heavy > 1_000.0  # "thousands of milliseconds"
    mean_orders = np.mean([math.log10(r) for r in ratios])
    assert 1.2 < mean_orders < 1.8  # "1.5x order of magnitude"
    for model in PAPER_MODELS:
        for px in IMAGE_SIZES:
            assert (
                grid[(model.name, "desktop", px)]
                < grid[(model.name, "smartphone", px)]
                < grid[(model.name, "raspberry_pi_3b+", px)]
            )
