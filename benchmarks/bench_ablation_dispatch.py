"""Ablation — one-model-for-all vs capability-aware dispatch.

The Action service's founding argument (paper Section VI): a single
static model either drowns weak devices (too heavy) or wastes strong
ones (too light).  The fleet simulator quantifies both failure modes
against capability-aware dispatch on a shared 1.5 Hz frame stream.
"""

from benchmarks.conftest import print_table
from repro.edge import (
    DESKTOP,
    INCEPTION_V3,
    MOBILENET_V1,
    PAPER_DEVICES,
    PAPER_MODELS,
    RASPBERRY_PI,
    SMARTPHONE,
    dispatch_model,
    simulate_fleet,
)

DEVICES = {
    "desktop": DESKTOP,
    "raspberry_pi_3b+": RASPBERRY_PI,
    "smartphone": SMARTPHONE,
}
DURATION_S = 60.0
RATE_HZ = 1.5


def test_ablation_dispatch_strategies(benchmark, capsys):
    def run():
        heavy_everywhere = {
            name: (device, INCEPTION_V3) for name, device in DEVICES.items()
        }
        light_everywhere = {
            name: (device, MOBILENET_V1) for name, device in DEVICES.items()
        }
        matched = {
            name: (
                device,
                dispatch_model(
                    device, list(PAPER_MODELS), latency_budget_ms=1000.0 / RATE_HZ
                ).model,
            )
            for name, device in DEVICES.items()
        }
        reports = {
            "inception everywhere": simulate_fleet(
                heavy_everywhere, DURATION_S, RATE_HZ, seed=0
            ),
            "mobilenet_v1 everywhere": simulate_fleet(
                light_everywhere, DURATION_S, RATE_HZ, seed=0
            ),
            "capability-aware": simulate_fleet(matched, DURATION_S, RATE_HZ, seed=0),
        }
        return matched, reports

    matched, reports = benchmark.pedantic(run, rounds=1, iterations=1)
    header = (
        f"{'strategy':<26}{'eff. accuracy':>15}{'dropped':>10}{'p95 ms (rpi)':>14}"
    )
    rows = []
    for name, report in reports.items():
        rpi = next(s for s in report.stats if s.device == "raspberry_pi_3b+")
        rows.append(
            f"{name:<26}{report.fleet_effective_accuracy:>15.3f}"
            f"{report.total_dropped:>10}{rpi.p95_latency_ms:>14.0f}"
        )
    rows.append("")
    rows.append(
        "matched models: "
        + ", ".join(f"{n}->{dm.name}" for n, (_, dm) in sorted(matched.items()))
    )
    print_table(
        capsys,
        f"Ablation: dispatch strategy ({RATE_HZ} Hz stream, {DURATION_S:.0f} s)",
        header,
        rows,
    )

    aware = reports["capability-aware"]
    heavy = reports["inception everywhere"]
    light = reports["mobilenet_v1 everywhere"]
    # Capability-aware dominates the uniform strategies.
    assert aware.fleet_effective_accuracy > heavy.fleet_effective_accuracy
    assert aware.fleet_effective_accuracy > light.fleet_effective_accuracy
    assert aware.total_dropped <= heavy.total_dropped