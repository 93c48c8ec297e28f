"""Which functions of ``src/repro`` nothing the repo runs ever calls.

Runs every reacher — the things the repo itself runs: the CLI tour, the
examples, the benchmark's workloads, the figure suite and the chaos
suites — each in its own subprocess, in a temporary directory, under a
``sys.setprofile`` + ``threading.setprofile`` call profiler that notes
the code object of every Python call.  Then it walks the package's
source and prints, package by package, the functions no reacher called
and how many lines they span (from the first decorator to the last line
of the body).  A nested function or lambda counts once, inside its
parent: only module-level functions and methods (of any class, however
nested, outside a function) are counted.  ``devtools`` is left out: its
reachers are its own CLI and tests.  The chaos suites count for
``resilience/`` only: they drive faults no platform run injects, and
would otherwise mark as reached whatever their tests call by hand.
They are the suites that drive the platform's own resilient paths (the
campaign chaos cycle, the shard executor's retries), never a policy's
own unit tests (``tests/resilience``, the resilience property tests):
those call every policy by hand, so counting them would mark as reached
what no platform path calls.

    python3 tools/reach.py

Takes a few minutes on a 2-vCPU host: every call pays the profiler.
Exits 1 if a reacher fails (its calls are counted all the same, so the
table is still printed).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CHAOS_SCOPE = "resilience"

# What a reacher's subprocess runs: the profiler, then the reacher, then
# the (file, first line) of every code object under ``src/repro`` it saw
# called, as JSON, to the file named by its first argument.
_CHILD = """
import json, runpy, sys, threading
out, src, mode, *argv = sys.argv[1:]
seen = set()
add = seen.add

def profile(frame, event, arg):
    if event == "call":
        add(frame.f_code)

status = 0
sys.setprofile(profile)
threading.setprofile(profile)
try:
    if mode == "pytest":
        import pytest
        status = int(pytest.main(argv))
    else:
        sys.argv = list(argv)
        if mode == "module":
            runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
except SystemExit as exit_:
    status = exit_.code if isinstance(exit_.code, int) else int(exit_.code is not None)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
with open(out, "w") as handle:
    json.dump(
        sorted({(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(src)}),
        handle,
    )
sys.exit(status)
"""

WORKLOADS = ("serial_select", "serial_broad", "sharded_select", "ingest_mix")
CHAOS_SUITES = (
    "tests/integration/test_chaos_cycle.py",
    "tests/shard",
)


def reachers() -> list[tuple[str, str, list[str], str | None]]:
    """``(name, mode, argv, scope)`` of every reacher; ``scope`` is the
    one package its calls count for, ``None`` for all."""
    out: list[tuple[str, str, list[str], str | None]] = [
        ("repro", "module", ["repro"], None),
        ("repro --chaos", "module", ["repro", "--chaos"], None),
        ("repro --stats --json", "module", ["repro", "--stats", "--json"], None),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        out.append((f"examples/{example.name}", "script", [str(example)], None))
    for workload in WORKLOADS:
        for traced in ("0", "1"):
            argv = ["bench", "--workload", workload, "--quick", "--trace", traced]
            out.append((f"bench {workload} --trace {traced}", "module", argv, None))
    quiet = ["-q", "-p", "no:cacheprovider"]
    out.append(
        ("pytest benchmarks", "pytest", [str(ROOT / "benchmarks"), *quiet,
                                         "--benchmark-disable"], None)
    )
    chaos = [str(ROOT / path) for path in CHAOS_SUITES]
    out.append(("chaos suites", "pytest", [*chaos, *quiet], CHAOS_SCOPE))
    return out


def run_reacher(mode: str, argv: list[str], workdir: str) -> tuple[int, set]:
    """Run one reacher under the profiler; its exit status and the
    ``(file, first line)`` of every code object it called."""
    out = os.path.join(workdir, "reached.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    env["TVDP_BENCH_SMOKE"] = "1"  # the figure suite at its CI sizes; nothing else reads it
    command = [sys.executable, "-c", _CHILD, out, str(SRC), mode, *argv]
    done = subprocess.run(
        command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr[-2000:])
    try:
        with open(out) as handle:
            reached = {(path, line) for path, line in json.load(handle)}
    except FileNotFoundError:
        reached = set()
    return done.returncode, reached


def functions(path: Path) -> list[tuple[str, int, int]]:
    """``(qualname, first line, last line)`` of every module-level
    function and every method of ``path``; nested functions stay inside
    their parent."""
    tree = ast.parse(path.read_text(), str(path))
    found: list[tuple[str, int, int]] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found.append((prefix + node.name, first, node.end_lineno or first))

    visit(tree.body, "")
    return found


def package_of(path: Path) -> str:
    parts = path.relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else path.stem


def main() -> int:
    reached: set = set()
    chaos_reached: set = set()
    failed = []
    for name, mode, argv, scope in reachers():
        with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
            status, calls = run_reacher(mode, argv, workdir)
        (chaos_reached if scope else reached).update(calls)
        print(f"  ran {name}: exit {status}, {len(calls)} functions called", flush=True)
        if status:
            failed.append(name)

    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    unreached: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        package = package_of(path)
        if package == "devtools":
            continue
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for qualname, first, last in functions(path):
            key = (str(path), first)
            hit = key in reached or (package == CHAOS_SCOPE and key in chaos_reached)
            lines = last - first + 1
            row = totals[package]
            row[0] += 1
            row[1] += lines
            if not hit:
                row[2] += 1
                row[3] += lines
                unreached[package].append((f"{module}:{qualname}", lines))

    print("\nUnreached functions by package (devtools left out)")
    print(f"{'package':<12}{'functions':>10}{'lines':>8}{'unreached':>11}{'lines':>8}")
    for package in sorted(totals):
        count, lines, dead, dead_lines = totals[package]
        print(f"{package:<12}{count:>10}{lines:>8}{dead:>11}{dead_lines:>8}")
    sums = [sum(row[i] for row in totals.values()) for i in range(4)]
    print(f"{'total':<12}{sums[0]:>10}{sums[1]:>8}{sums[2]:>11}{sums[3]:>8}")
    for package in sorted(unreached):
        print(f"\n[{package}]")
        for name, lines in unreached[package]:
            print(f"  {lines:>4}  {name}")
    if failed:
        print(f"\nreachers that failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
