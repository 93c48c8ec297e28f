#!/usr/bin/env python3
"""Diff two ``BENCH_<git-sha>.json`` trajectory documents.

Usage::

    python tools/bench_compare.py BASELINE.json CURRENT.json [--skip-wall]

Exits non-zero when the current run regresses past the tolerance
(default 20%) on:

* **wall time** per bench (skipped with ``--skip-wall`` — CI runners
  have wildly different clocks; the probe counters below are seeded
  and deterministic, so they gate CI instead),
* **probe counters** per bench (more index probes / node visits for
  the same seeded workload means an algorithmic regression),
* **coverage** — a bench present in the baseline but missing from the
  current run,
* **load section** (from ``python -m benchmarks.load``) — schema
  validity, schedule-digest drift between runs with identical workload
  knobs, per-stage error growth, and (when wall gating is on)
  throughput collapse / p95 blow-up per concurrency stage,
* **instrumentation overhead** — any bench reporting
  ``results.overhead_pct`` above :data:`OVERHEAD_LIMIT_PCT` or
  ``results.span_pct`` above :data:`SPAN_LIMIT_PCT` fails the current
  run outright (checked even with ``--skip-wall``; see
  ``benchmarks/bench_obs_overhead.py``).

Tiny values are noise, not signal: wall times under ``WALL_FLOOR_S``
and counters under ``COUNTER_FLOOR`` never regress.  New benches and
counters (present only in the current run) are informational.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.load_schema import validate_load_section  # noqa: E402

#: Relative growth beyond which a wall time / counter is a regression.
DEFAULT_TOLERANCE = 0.20
#: Wall times below this are measurement noise and never compared.
WALL_FLOOR_S = 0.05
#: Counters below this are too small for a ratio test.
COUNTER_FLOOR = 50.0
#: Allowed relative throughput drop / p95 growth per load stage (load
#: runs are noisier than single benches, so the band is wider).
LOAD_TOLERANCE = 0.35
#: Hard ceilings on ``results.overhead_pct`` / ``results.span_pct``
#: reported by any bench in the *current* run (``bench_obs_overhead.py``:
#: the resource ledger's marginal cost, and one empty span, each as a
#: percentage of one un-instrumented index query timed in the same run).
#: Checked even under ``--skip-wall`` — each is a ratio of two walls
#: from the same run on the same machine, so it survives slow CI
#: runners.  The yardstick holds none of the gated cost, so slower
#: serving cannot pass the gate and faster serving cannot fail it.
#: Measured 28-36 % and 45-57 % when set (the eager slow-span log this
#: gate was added against read 210 %): the ledger may cost half a
#: query, a span one query.
OVERHEAD_LIMIT_PCT = 50.0
SPAN_LIMIT_PCT = 100.0
_RESULT_CEILINGS = {"overhead_pct": OVERHEAD_LIMIT_PCT, "span_pct": SPAN_LIMIT_PCT}


def load_document(path: str | Path) -> dict:
    document = json.loads(Path(path).read_text())
    version = document.get("schema_version")
    if version != 1:
        raise ValueError(f"{path}: unsupported schema_version {version!r}")
    if "load" in document:
        problems = validate_load_section(document["load"])
        if problems:
            raise ValueError(f"{path}: invalid load section: {'; '.join(problems)}")
    return document


def compare(
    baseline: dict,
    current: dict,
    *,
    wall_tolerance: float = DEFAULT_TOLERANCE,
    counter_tolerance: float = DEFAULT_TOLERANCE,
    skip_wall: bool = False,
) -> list[dict]:
    """Regressions of ``current`` against ``baseline``, empty if clean.

    Each regression dict has ``kind`` (``wall`` / ``counter`` /
    ``missing``), ``bench``, and for ratio kinds ``baseline`` /
    ``current`` / ``ratio``.
    """
    regressions: list[dict] = []
    base_benches = baseline.get("benches", {})
    cur_benches = current.get("benches", {})
    if "benches" in baseline and "benches" not in current:
        # A candidate without the section at all (e.g. a load-only
        # document) is a coverage failure, not a crash.
        regressions.append({"kind": "section-missing", "bench": "benches"})
    for bench in sorted(set(base_benches) - set(cur_benches)):
        regressions.append({"kind": "missing", "bench": bench})
    for bench in sorted(set(base_benches) & set(cur_benches)):
        base, cur = base_benches[bench], cur_benches[bench]
        if not skip_wall:
            base_wall, cur_wall = base["wall_s"], cur["wall_s"]
            if base_wall >= WALL_FLOOR_S and cur_wall > base_wall * (1 + wall_tolerance):
                regressions.append(
                    {
                        "kind": "wall",
                        "bench": bench,
                        "baseline": base_wall,
                        "current": cur_wall,
                        "ratio": cur_wall / base_wall,
                    }
                )
        base_counters = base.get("counters", {})
        cur_counters = cur.get("counters", {})
        for name in sorted(set(base_counters) & set(cur_counters)):
            base_value, cur_value = base_counters[name], cur_counters[name]
            if base_value >= COUNTER_FLOOR and cur_value > base_value * (
                1 + counter_tolerance
            ):
                regressions.append(
                    {
                        "kind": "counter",
                        "bench": bench,
                        "counter": name,
                        "baseline": base_value,
                        "current": cur_value,
                        "ratio": cur_value / base_value,
                    }
                )
    regressions.extend(_compare_load(baseline, current, skip_wall=skip_wall))
    regressions.extend(_check_overhead(current))
    return regressions


def _check_overhead(current: dict) -> list[dict]:
    """Benches whose reported ``results.overhead_pct`` / ``span_pct``
    breaks its hard ceiling — an absolute gate on the current run, not a
    baseline diff."""
    over: list[dict] = []
    for bench, record in sorted(current.get("benches", {}).items()):
        for metric, ceiling in _RESULT_CEILINGS.items():
            pct = record.get("results", {}).get(metric)
            if isinstance(pct, (int, float)) and not isinstance(pct, bool) and (
                pct > ceiling
            ):
                over.append(
                    {
                        "kind": "overhead",
                        "bench": bench,
                        "metric": metric,
                        "baseline": ceiling,
                        "current": pct,
                    }
                )
    return over


def _same_workload(base_load: dict, cur_load: dict) -> bool:
    """Whether the two load sections ran identical workload knobs (only
    then are digest and throughput comparisons meaningful)."""
    keys = (
        "schema_version",
        "seed",
        "smoke",
        "zipf_s",
        "requests_per_worker",
        "principals",
    )
    return all(base_load.get(k) == cur_load.get(k) for k in keys)


def _compare_load(baseline: dict, current: dict, *, skip_wall: bool) -> list[dict]:
    """Regressions of the load sections; empty when either is absent
    or the workloads are not comparable (except coverage loss)."""
    base_load = baseline.get("load")
    cur_load = current.get("load")
    if base_load is None:
        return []  # nothing to hold the current run to
    if cur_load is None:
        return [{"kind": "load-missing", "bench": "load"}]
    if not _same_workload(base_load, cur_load):
        return []  # different knobs: numbers are incommensurable
    regressions: list[dict] = []
    if base_load["schedule_digest"] != cur_load["schedule_digest"]:
        # Same seed and knobs must replay the same request schedule —
        # a drifted digest means the generator lost determinism.
        regressions.append(
            {
                "kind": "load-schedule",
                "bench": "load",
                "baseline": base_load["schedule_digest"][:12],
                "current": cur_load["schedule_digest"][:12],
            }
        )
    base_stages = {s["concurrency"]: s for s in base_load["stages"]}
    cur_stages = {s["concurrency"]: s for s in cur_load["stages"]}
    for concurrency in sorted(set(base_stages) & set(cur_stages)):
        base_stage, cur_stage = base_stages[concurrency], cur_stages[concurrency]
        stage = f"load[c={concurrency}]"
        if cur_stage["errors"] > base_stage["errors"]:
            regressions.append(
                {
                    "kind": "load-errors",
                    "bench": stage,
                    "baseline": base_stage["errors"],
                    "current": cur_stage["errors"],
                }
            )
        if skip_wall:
            continue  # throughput/latency are wall-clock measurements
        base_rps, cur_rps = base_stage["throughput_rps"], cur_stage["throughput_rps"]
        if base_rps > 0 and cur_rps < base_rps * (1 - LOAD_TOLERANCE):
            regressions.append(
                {
                    "kind": "load-throughput",
                    "bench": stage,
                    "baseline": base_rps,
                    "current": cur_rps,
                    "ratio": cur_rps / base_rps,
                }
            )
        base_p95 = base_stage["latency_ms"]["p95"]
        cur_p95 = cur_stage["latency_ms"]["p95"]
        if base_p95 > 0.5 and cur_p95 > base_p95 * (1 + LOAD_TOLERANCE):
            regressions.append(
                {
                    "kind": "load-p95",
                    "bench": stage,
                    "baseline": base_p95,
                    "current": cur_p95,
                    "ratio": cur_p95 / base_p95,
                }
            )
    return regressions


_KIND_LABELS = {
    "wall": "wall_s",
    "load-errors": "errors",
    "load-throughput": "throughput_rps",
    "load-p95": "latency_ms.p95",
}


def format_regression(regression: dict) -> str:
    kind = regression["kind"]
    if kind == "missing":
        return f"MISSING  {regression['bench']} (in baseline, not in current run)"
    if kind == "section-missing":
        return (
            f"SECTION-MISSING  {regression['bench']} section in baseline, "
            f"not in current run"
        )
    if kind == "load-missing":
        return "LOAD-MISSING  load section in baseline, not in current run"
    if kind == "overhead":
        return (
            f"OVERHEAD  {regression['bench']}: results.{regression['metric']} "
            f"{regression['current']:g} exceeds the {regression['baseline']:g}% "
            f"instrumentation-overhead ceiling"
        )
    if kind == "load-schedule":
        return (
            f"LOAD-SCHEDULE  schedule digest drifted "
            f"{regression['baseline']}... -> {regression['current']}... "
            f"(same seed must replay the same schedule)"
        )
    label = _KIND_LABELS.get(kind) or regression["counter"]
    ratio = f" ({regression['ratio']:.2f}x)" if "ratio" in regression else ""
    return (
        f"{kind.upper():<8} {regression['bench']}: {label} "
        f"{regression['baseline']:g} -> {regression['current']:g}{ratio}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json files; exit 1 on regression."
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument(
        "--skip-wall",
        action="store_true",
        help="ignore wall-time changes (CI: machines differ; counters gate)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative wall-time growth allowed (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative counter growth allowed (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_document(args.baseline)
        current = load_document(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if baseline.get("smoke") != current.get("smoke"):
        print(
            "warning: comparing a smoke run against a full run — "
            "sweep sizes differ, expect counter noise",
            file=sys.stderr,
        )

    regressions = compare(
        baseline,
        current,
        wall_tolerance=args.wall_tolerance,
        counter_tolerance=args.counter_tolerance,
        skip_wall=args.skip_wall,
    )
    shared = len(set(baseline.get("benches", {})) & set(current.get("benches", {})))
    new = sorted(set(current.get("benches", {})) - set(baseline.get("benches", {})))
    print(
        f"compared {shared} benches "
        f"({baseline.get('git_sha')} -> {current.get('git_sha')}, "
        f"wall {'skipped' if args.skip_wall else 'checked'})"
    )
    for bench in new:
        print(f"NEW      {bench} (not in baseline)")
    if not regressions:
        print("no regressions")
        return 0
    for regression in regressions:
        print(format_regression(regression))
    print(f"{len(regressions)} regression(s)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
