"""``python -m bench``: run the repo benchmark.

Contract mode (what ``BENCHMARK.json`` names; one run, result as the last
line of standard output)::

    python -m bench --workload serial_select --seed 0 --seconds 10 --trace 0

Without ``--workload`` every workload runs, untraced then traced, each in
a fresh process, and every metric is printed by name with its unit;
``--repeat 2`` does that twice and holds the two sets against the bounds
in ``BENCHMARK.json``; ``--quick`` is a small unbounded smoke profile.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 1.0


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path (no install, no
    ``PYTHONPATH``): the benchmark builds nothing, it runs the source
    beside it, never a ``repro`` installed elsewhere."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("bench: the program under test (src/repro) is missing")
    sys.path.insert(0, str(ROOT / "src"))


def one_run(args: argparse.Namespace) -> int:
    import_program()
    from bench import schedule, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    sizes = schedule.QUICK if args.quick else schedule.FULL
    run = trace.run if args.trace else workloads.run
    result = run(args.workload, sizes, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in result.notes.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in result.problems:
        print(f"  WRONG: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.failed == 0 else 1


def _child(workload: str, args: argparse.Namespace, traced: int) -> dict:
    """One run in a fresh process, so no run inherits another's heap,
    caches or observability state."""
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(traced),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0:
        sys.exit(f"bench: {workload} (trace {traced}) failed")
    return json.loads(lines[-1])["metrics"]


def full_set(args: argparse.Namespace) -> dict[str, dict]:
    """``{workload: {metric: {value, unit}}}`` for the untraced runs;
    the traced runs are printed as they go."""
    from_untraced = {}
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        from_untraced[workload["name"]] = _child(workload["name"], args, 0)
        _child(workload["name"], args, 1)
    return from_untraced


def compare(sets: list[dict], bounds: dict[str, float]) -> int:
    """Print, per end-to-end metric and workload, the values of the two
    sets, their relative gap and the bound; 1 if any gap is over its
    bound."""
    over = 0
    header = ("workload", "metric", "first", "second", "gap", "bound")
    print("{:<16}{:<20}{:>12}{:>12}{:>8}{:>8}".format(*header))
    for workload, first in sets[0].items():
        for name, cell in first.items():
            a, b = cell["value"], sets[1][workload][name]["value"]
            gap = abs(a - b) / min(abs(a), abs(b))
            flag = ""
            if gap > bounds[name]:
                over += 1
                flag = "  OVER"
            print(
                f"{workload:<16}{name:<20}{a:>12.5g}{b:>12.5g}"
                f"{gap:>8.1%}{bounds[name]:>8.0%}{flag}"
            )
    return 1 if over else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.workload:
        return one_run(args)
    sets = [full_set(args) for _ in range(args.repeat)]
    if args.repeat < 2 or args.quick:
        return 0
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(sets, {m["name"]: m["bound"] for m in contract["end_to_end"]})


if __name__ == "__main__":
    sys.exit(main())
