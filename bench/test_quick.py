"""Smoke test of the benchmark itself; not part of tier-1.

Run with ``python -m pytest bench -q``: a few seconds per workload on the
``--quick`` profile, no bounds.
"""

import json
import re
import subprocess
import sys

import pytest

from bench.__main__ import ROOT, import_program

import_program()

from bench import schedule, workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_names_the_workloads_the_benchmark_has():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names + WORKLOADS)
    assert len(set(names)) == len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schedule_is_a_pure_function_of_the_seed(workload):
    first = workloads.plan(workload, schedule.QUICK, 0).digest
    assert first == workloads.plan(workload, schedule.QUICK, 0).digest
    assert first != workloads.plan(workload, schedule.QUICK, 1).digest


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(workload, traced, section):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--workload", workload,
         "--seed", "0", "--trace", str(traced)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if traced:
        assert result["metrics"]["failed_share"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
