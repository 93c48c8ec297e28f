"""The ``python -m repro.devtools.check`` entry point.

Runs every rule in :data:`RULES` over ``src/repro`` and exits non-zero
on any finding.  Output is a human report by default, a
machine-readable document with ``--json`` (CI consumes the exit code,
tooling consumes the JSON).  A finding is accepted only by an inline
``# devtools: allow[rule-id] — reason`` next to the code it excuses.

Typical workflows::

    python -m repro.devtools.check                    # gate: fail on findings
    python -m repro.devtools.check --select hot-path  # one rule
    python -m repro.devtools.check --json             # machine-readable report
    python -m repro.devtools.check --write-concurrency-manifest

Adding a rule is one :class:`Rule` entry below (plus its predicate —
for a per-file rule, one row of ``repro.devtools.lint.LINTS`` — and one
seeded case under ``tests/devtools/corpus/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.devtools.atomicity import check_atomicity
from repro.devtools.blockinghandler import check_blocking_in_handler
from repro.devtools.callgraph import (
    CallGraph,
    SymbolTable,
    build_call_graph,
    build_symbol_table,
)
from repro.devtools.deadcode import check_dead_code
from repro.devtools.findings import Finding, SourceModule, collect_modules
from repro.devtools.hotpath import check_hot_path
from repro.devtools.layers import DEFAULT_LAYER_CONFIG, LayerConfig, check_layers
from repro.devtools.lint import run_lints
from repro.devtools.lockorder import check_lock_order
from repro.devtools.sarif import github_annotations, to_sarif
from repro.devtools.threadescape import (
    DEFAULT_CONCURRENT_ROOTS,
    analyze_escape,
    build_concurrency_manifest,
    check_thread_escape,
    render_concurrency_manifest,
)

#: The drift-gated thread-safety manifest, relative to the repo root.
CONCURRENCY_MANIFEST = "tools/concurrency_manifest.json"


@dataclass(slots=True)
class Tree:
    """One scanned package: what a rule's runner may look at."""

    root: Path  # the package directory
    repo_root: Path  # base of reported paths; holds tools/ and examples/
    layer_config: LayerConfig
    modules: list[SourceModule]
    #: built only when a selected rule is ``whole_program``
    symbols: SymbolTable | None = None
    calls: CallGraph | None = None

    @property
    def table(self) -> SymbolTable:
        assert self.symbols is not None, "rule must be marked whole_program"
        return self.symbols

    @property
    def graph(self) -> CallGraph:
        assert self.calls is not None, "rule must be marked whole_program"
        return self.calls


@dataclass(frozen=True, slots=True)
class Rule:
    """One row of the rule table."""

    id: str
    summary: str  # one line, shown in SARIF metadata and the docs
    #: None for a per-file row of ``repro.devtools.lint.LINTS``: those
    #: share one walk per module, timed together as ``lint``
    run: Callable[[Tree], list[Finding]] | None = None
    #: needs the whole-program symbol table / call graph
    whole_program: bool = False


def _thread_escape(tree: Tree) -> list[Finding]:
    try:
        checked_in = json.loads(
            (tree.repo_root / CONCURRENCY_MANIFEST).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        checked_in = None
    return check_thread_escape(tree.table, tree.graph, checked_in, CONCURRENCY_MANIFEST)[0]


#: Every rule the suite runs, in report order.
RULES: tuple[Rule, ...] = (
    Rule(
        "layer-boundary",
        "Import crosses the declared layer DAG.",
        lambda t: check_layers(t.modules, t.root, t.layer_config),
    ),
    Rule("module-mutable-state", "Module-level mutable state mutated outside a lock."),
    Rule("broad-except", "Broad exception handler swallows errors."),
    Rule("mutable-default", "Mutable default argument."),
    Rule("no-print", "print() in library code (use repro.obs logging)."),
    Rule("geo-range", "Latitude/longitude literal out of range."),
    Rule("no-sleep", "Raw sleep in library code (use the Clock seam)."),
    Rule(
        "lock-order",
        "Lock-order inversion or lock held across blocking work.",
        lambda t: check_lock_order(t.table, t.graph, t.modules),
        whole_program=True,
    ),
    Rule(
        "dead-code",
        "Unreferenced public symbol.",
        lambda t: check_dead_code(t.table, t.modules, repo_root=t.repo_root),
        whole_program=True,
    ),
    Rule(
        "hot-path",
        "Per-item work on a query path outside the cost model.",
        lambda t: check_hot_path(t.modules, t.table, t.graph),
        whole_program=True,
    ),
    Rule("determinism", "Nondeterminism (clock, RNG, set order) on a result path."),
    Rule(
        "thread-escape",
        "Shared mutable state mutated without a consistent lock on a concurrent path.",
        _thread_escape,
        whole_program=True,
    ),
    Rule(
        "atomicity",
        "Check-then-act / read-modify-write gap on lock-guarded shared state.",
        lambda t: check_atomicity(t.table, t.graph),
        whole_program=True,
    ),
    Rule(
        "blocking-in-handler",
        "Blocking call reachable from an HTTP handler.",
        lambda t: check_blocking_in_handler(t.table, t.graph),
        whole_program=True,
    ),
)

#: Every rule id the suite can emit, for --select validation and docs.
ALL_RULES: tuple[str, ...] = tuple(rule.id for rule in RULES)


def _default_paths() -> tuple[Path, Path]:
    """(scan root, repo root) for the installed tree."""
    package_root = Path(__file__).resolve().parents[1]  # src/repro
    return package_root, package_root.parents[1]  # the checkout (src/..)


@dataclass(slots=True)
class CheckResult:
    """Everything one suite run produced."""

    findings: list[Finding]
    modules_scanned: int
    rules: tuple[str, ...]
    by_rule: dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds per rule (plus "collect" and "callgraph").
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def elapsed(self) -> float:
        return sum(self.timings.values())

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "modules_scanned": self.modules_scanned,
            "rules": list(self.rules),
            "counts": {"total": len(self.findings), "by_rule": self.by_rule},
            "timings_s": {name: round(value, 4) for name, value in self.timings.items()},
            "elapsed_s": round(self.elapsed, 4),
            "findings": [f.to_dict() for f in self.findings],
        }


def _load(
    root: Path | None,
    repo_root: Path | None,
    layer_config: LayerConfig,
    whole_program: bool,
    timings: dict[str, float],
) -> Tree:
    default_root, default_repo = _default_paths()
    scan_root = root if root is not None else default_root
    base = repo_root if repo_root is not None else default_repo
    started = time.perf_counter()
    tree = Tree(scan_root, base, layer_config, collect_modules(scan_root, repo_root=base))
    timings["collect"] = time.perf_counter() - started
    if whole_program:
        started = time.perf_counter()
        tree.symbols = build_symbol_table(tree.modules, scan_root)
        tree.calls = build_call_graph(tree.symbols)
        timings["callgraph"] = time.perf_counter() - started
    return tree


def run_check(
    root: Path | None = None,
    repo_root: Path | None = None,
    layer_config: LayerConfig = DEFAULT_LAYER_CONFIG,
    select: tuple[str, ...] | None = None,
) -> CheckResult:
    """Run the suite (or the ``select``-ed rule ids) over ``root``
    (default: the installed ``repro`` package)."""
    unknown = set(select or ()) - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    rules = [rule for rule in RULES if select is None or rule.id in select]
    timings: dict[str, float] = {}
    tree = _load(
        root, repo_root, layer_config, any(rule.whole_program for rule in rules), timings
    )
    findings: list[Finding] = []
    lints = tuple(rule.id for rule in rules if rule.run is None)
    if lints:
        started = time.perf_counter()
        findings.extend(run_lints(tree.modules, lints))
        timings["lint"] = time.perf_counter() - started
    for rule in rules:
        if rule.run is not None:
            started = time.perf_counter()
            findings.extend(rule.run(tree))
            timings[rule.id] = time.perf_counter() - started

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return CheckResult(
        findings=findings,
        modules_scanned=len(tree.modules),
        rules=tuple(rule.id for rule in rules),
        by_rule=by_rule,
        timings=timings,
    )


def _render_human(result: CheckResult, budget_s: float | None) -> str:
    lines: list[str] = []
    if result.findings:
        lines.append(f"repro.devtools.check: {len(result.findings)} finding(s)")
        lines.extend(f"  {finding.render()}" for finding in result.findings)
        lines.append("")
        lines.append(
            "Fix the findings, or justify one inline with "
            "'# devtools: allow[rule-id] — reason'."
        )
    else:
        lines.append(
            f"repro.devtools.check: OK — {result.modules_scanned} modules, "
            f"{len(result.rules)} rules, 0 findings"
        )
    slowest = sorted(result.timings.items(), key=lambda kv: -kv[1])[:3]
    detail = ", ".join(f"{name} {value:.2f}s" for name, value in slowest)
    budget = f" (budget {budget_s:.0f}s)" if budget_s is not None else ""
    lines.append(f"analysis wall-time: {result.elapsed:.2f}s{budget} — {detail}")
    return "\n".join(lines)


def write_concurrency_manifest(root: Path | None, repo_root: Path | None) -> str:
    """Regenerate the thread-safety manifest from the tree; returns a
    one-line summary."""
    tree = _load(root, repo_root, DEFAULT_LAYER_CONFIG, True, {})
    manifest = build_concurrency_manifest(
        analyze_escape(tree.table, tree.graph), DEFAULT_CONCURRENT_ROOTS
    )
    manifest_file = tree.repo_root / CONCURRENCY_MANIFEST
    manifest_file.write_text(render_concurrency_manifest(manifest), encoding="utf-8")
    return f"wrote {len(manifest['entries'])} classification(s) to {manifest_file}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.check",
        description="TVDP static-analysis suite (layer DAG, concurrency, correctness).",
    )
    parser.add_argument("--root", type=Path, default=None, help="package dir to scan")
    parser.add_argument(
        "--repo-root", type=Path, default=None, help="base dir for reported paths"
    )
    parser.add_argument(
        "--select",
        default=None,
        help=f"comma-separated rule ids to run (default: all of {', '.join(ALL_RULES)})",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--json-out", type=Path, default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--sarif", type=Path, default=None, help="write a SARIF 2.1.0 report here"
    )
    parser.add_argument(
        "--github-annotations",
        action="store_true",
        help="print ::error workflow-command lines for findings",
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=None,
        help="fail (exit 1) when total analysis wall-time exceeds this many seconds",
    )
    parser.add_argument(
        "--write-concurrency-manifest",
        action="store_true",
        help=f"regenerate {CONCURRENCY_MANIFEST} from the tree and exit 0",
    )
    args = parser.parse_args(argv)

    if args.write_concurrency_manifest:
        sys.stdout.write(write_concurrency_manifest(args.root, args.repo_root) + "\n")
        return 0
    select: tuple[str, ...] | None = None
    if args.select:
        select = tuple(part.strip() for part in args.select.split(",") if part.strip())
    try:
        result = run_check(root=args.root, repo_root=args.repo_root, select=select)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.sarif is not None:
        summaries = {rule.id: rule.summary for rule in RULES if rule.id in result.rules}
        args.sarif.write_text(
            json.dumps(to_sarif(result.findings, summaries), indent=2) + "\n",
            encoding="utf-8",
        )
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.github_annotations:
        for line in github_annotations(result.findings):
            sys.stdout.write(line + "\n")
    if args.json:
        sys.stdout.write(json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(_render_human(result, args.budget_s) + "\n")
    if args.budget_s is not None and result.elapsed > args.budget_s:
        sys.stderr.write(
            f"error: analysis took {result.elapsed:.2f}s, over the "
            f"{args.budget_s:.0f}s budget\n"
        )
        return 1
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
