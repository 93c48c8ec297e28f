"""The ``python -m repro.devtools.check`` entry point.

Runs every static-analysis pass over ``src/repro``, subtracts the
checked-in baseline, and exits non-zero on any *new* finding.  Output
is a human report by default, a machine-readable document with
``--json`` (CI consumes the exit code, tooling consumes the JSON).

Typical workflows::

    python -m repro.devtools.check                  # gate: fail on new findings
    python -m repro.devtools.check --json           # machine-readable report
    python -m repro.devtools.check --write-baseline # accept current findings
    python -m repro.devtools.check --no-baseline    # show everything, even accepted
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
from repro.devtools.callgraph import build_call_graph, build_symbol_table
from repro.devtools.concurrency import DEFAULT_CRITICAL_GLOBS, check_concurrency
from repro.devtools.correctness import (
    check_broad_except,
    check_geo_literals,
    check_mutable_defaults,
    check_no_print,
    check_no_sleep,
)
from repro.devtools.deadcode import check_dead_code
from repro.devtools.determinism import check_determinism
from repro.devtools.exceptions import check_exception_flow
from repro.devtools.findings import (
    Finding,
    collect_modules,
    load_baseline,
    split_new,
    write_baseline,
)
from repro.devtools.hotpath import DEFAULT_DATA_PLANE_ROOTS, check_hot_path
from repro.devtools.layers import DEFAULT_LAYER_CONFIG, LayerConfig, check_layers
from repro.devtools.lockorder import check_lock_order
from repro.devtools.sarif import github_annotations, to_sarif
from repro.devtools.threadescape import (
    DEFAULT_CONCURRENT_ROOTS,
    check_thread_escape,
    render_concurrency_manifest,
)

#: Every rule id the suite can emit, for --select validation and docs.
ALL_RULES: tuple[str, ...] = (
    "layer-boundary",
    "module-mutable-state",
    "unlocked-mutation",
    "broad-except",
    "mutable-default",
    "no-print",
    "geo-range",
    "no-sleep",
    "lock-order",
    "exception-flow",
    "determinism",
    "dead-code",
    "hot-path",
    "thread-escape",
    "atomicity",
    "blocking-in-handler",
)

#: Rules that need the whole-program symbol table / call graph.
WHOLE_PROGRAM_RULES: frozenset[str] = frozenset(
    {
        "lock-order",
        "exception-flow",
        "dead-code",
        "hot-path",
        "thread-escape",
        "atomicity",
        "blocking-in-handler",
    }
)

#: Named passes for ``--only`` / ``--list-passes``: a CI job can target
#: one pass without paying the whole suite's wall time.
PASSES: dict[str, tuple[str, ...]] = {
    "layers": ("layer-boundary",),
    "concurrency": ("module-mutable-state", "unlocked-mutation"),
    "correctness": (
        "broad-except",
        "mutable-default",
        "no-print",
        "geo-range",
        "no-sleep",
    ),
    "lock-order": ("lock-order",),
    "exception-flow": ("exception-flow",),
    "determinism": ("determinism",),
    "dead-code": ("dead-code",),
    "hot-path": ("hot-path",),
    "thread-escape": ("thread-escape",),
    "atomicity": ("atomicity",),
    "blocking-in-handler": ("blocking-in-handler",),
}


def _default_paths() -> tuple[Path, Path, Path]:
    """(scan root, repo root, baseline path) for the installed tree."""
    package_root = Path(__file__).resolve().parents[1]  # src/repro
    repo_root = package_root.parents[1]  # the checkout (src/..)
    baseline = repo_root / "tools" / "devtools_baseline.json"
    return package_root, repo_root, baseline


@dataclass(slots=True)
class CheckResult:
    """Everything one suite run produced."""

    findings: list[Finding]  # all, before baseline subtraction
    new: list[Finding]
    suppressed: list[Finding]
    modules_scanned: int
    rules: tuple[str, ...] = ALL_RULES
    by_rule: dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds per pass (plus "collect" and "callgraph").
    timings: dict[str, float] = field(default_factory=dict)
    #: concurrency manifest computed by the thread-escape pass
    #: (None when that pass did not run).
    concurrency_manifest: dict | None = None
    #: baseline fingerprints whose finding no longer exists on the tree
    #: — the ratchet must shrink (see --trim-baseline).
    stale_baseline: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new and not self.stale_baseline

    @property
    def elapsed(self) -> float:
        return sum(self.timings.values())

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "modules_scanned": self.modules_scanned,
            "rules": list(self.rules),
            "counts": {
                "total": len(self.findings),
                "new": len(self.new),
                "baselined": len(self.suppressed),
                "by_rule": self.by_rule,
            },
            "timings_s": {name: round(value, 4) for name, value in self.timings.items()},
            "elapsed_s": round(self.elapsed, 4),
            "new_findings": [f.to_dict() for f in self.new],
            "baselined_findings": [f.to_dict() for f in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
        }


def run_check(
    root: Path | None = None,
    repo_root: Path | None = None,
    layer_config: LayerConfig = DEFAULT_LAYER_CONFIG,
    critical_globs: tuple[str, ...] = DEFAULT_CRITICAL_GLOBS,
    baseline: list[str] | None = None,
    select: tuple[str, ...] | None = None,
    data_plane_roots: tuple[str, ...] = DEFAULT_DATA_PLANE_ROOTS,
    concurrent_roots: tuple[str, ...] = DEFAULT_CONCURRENT_ROOTS,
    concurrency_manifest_path: Path | None = None,
) -> CheckResult:
    """Run the suite over ``root`` (default: the installed ``repro``
    package) and partition findings against ``baseline``."""
    default_root, default_repo, _ = _default_paths()
    scan_root = root if root is not None else default_root
    base = repo_root if repo_root is not None else default_repo
    concurrency_file = (
        concurrency_manifest_path
        if concurrency_manifest_path is not None
        else base / "tools" / "concurrency_manifest.json"
    )
    timings: dict[str, float] = {}

    started = time.perf_counter()
    modules = collect_modules(scan_root, repo_root=base)
    timings["collect"] = time.perf_counter() - started

    scope_cache: dict = {}
    selected = set(select) if select is not None else set(ALL_RULES)
    unknown = selected - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")

    table = None
    graph = None
    if selected & WHOLE_PROGRAM_RULES:
        started = time.perf_counter()
        table = build_symbol_table(modules, scan_root)
        graph = build_call_graph(table)
        timings["callgraph"] = time.perf_counter() - started

    findings: list[Finding] = []

    def timed(name: str, run: Callable[[], list[Finding]]) -> None:
        began = time.perf_counter()
        findings.extend(run())
        timings[name] = time.perf_counter() - began

    if "layer-boundary" in selected:
        timed("layer-boundary", lambda: check_layers(modules, scan_root, layer_config))
    if {"module-mutable-state", "unlocked-mutation"} & selected:
        started = time.perf_counter()
        concurrency = check_concurrency(modules, critical_globs, scope_cache)
        findings += [f for f in concurrency if f.rule in selected]
        timings["concurrency"] = time.perf_counter() - started
    if "broad-except" in selected:
        timed("broad-except", lambda: check_broad_except(modules, scope_cache))
    if "mutable-default" in selected:
        timed("mutable-default", lambda: check_mutable_defaults(modules, scope_cache))
    if "no-print" in selected:
        timed("no-print", lambda: check_no_print(modules, scope_cache))
    if "geo-range" in selected:
        timed("geo-range", lambda: check_geo_literals(modules, scope_cache))
    if "no-sleep" in selected:
        timed("no-sleep", lambda: check_no_sleep(modules, scope_cache))
    if table is not None and graph is not None:
        whole_table, whole_graph = table, graph
        if "lock-order" in selected:
            timed(
                "lock-order",
                lambda: check_lock_order(whole_table, whole_graph, modules),
            )
        if "exception-flow" in selected:
            timed(
                "exception-flow",
                lambda: check_exception_flow(whole_table, whole_graph, modules),
            )
        if "dead-code" in selected:
            timed(
                "dead-code",
                lambda: check_dead_code(whole_table, modules, repo_root=base),
            )
        if "hot-path" in selected:
            timed(
                "hot-path",
                lambda: check_hot_path(
                    modules,
                    whole_table,
                    whole_graph,
                    data_plane_roots,
                    scope_cache=scope_cache,
                ),
            )
    if "determinism" in selected:
        timed("determinism", lambda: check_determinism(modules, scope_cache=scope_cache))
    concurrency_manifest: dict | None = None
    escape_analysis = None
    if table is not None and graph is not None:
        if "thread-escape" in selected:
            started = time.perf_counter()
            checked_in_conc: dict | None = None
            if concurrency_file.exists():
                try:
                    checked_in_conc = json.loads(
                        concurrency_file.read_text(encoding="utf-8")
                    )
                except (OSError, ValueError):
                    checked_in_conc = None
            try:
                concurrency_rel = concurrency_file.relative_to(base).as_posix()
            except ValueError:
                concurrency_rel = concurrency_file.as_posix()
            escape_findings, concurrency_manifest, escape_analysis = (
                check_thread_escape(
                    table,
                    graph,
                    concurrent_roots,
                    checked_in=checked_in_conc,
                    manifest_rel=concurrency_rel,
                )
            )
            findings.extend(escape_findings)
            timings["thread-escape"] = time.perf_counter() - started
        if "atomicity" in selected:
            started = time.perf_counter()
            findings.extend(
                check_atomicity(
                    table, graph, concurrent_roots, analysis=escape_analysis
                )
            )
            timings["atomicity"] = time.perf_counter() - started
        if "blocking-in-handler" in selected:
            timed(
                "blocking-in-handler",
                lambda: check_blocking_in_handler(table, graph),
            )

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    new, suppressed = split_new(findings, baseline or [])
    consumed: dict[str, int] = {}
    for finding in suppressed:
        consumed[finding.fingerprint] = consumed.get(finding.fingerprint, 0) + 1
    stale: list[str] = []
    for fingerprint in baseline or []:
        remaining = consumed.get(fingerprint, 0)
        if remaining > 0:
            consumed[fingerprint] = remaining - 1
        else:
            stale.append(fingerprint)
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return CheckResult(
        findings=findings,
        new=new,
        suppressed=suppressed,
        modules_scanned=len(modules),
        by_rule=by_rule,
        timings=timings,
        concurrency_manifest=concurrency_manifest,
        stale_baseline=sorted(stale),
    )


def _render_human(
    result: CheckResult, baseline_path: Path | None, budget_s: float | None = None
) -> str:
    lines: list[str] = []
    if result.stale_baseline:
        lines.append(
            f"repro.devtools.check: {len(result.stale_baseline)} stale baseline "
            "entr(ies) — the finding was fixed but its suppression remains"
        )
        for fingerprint in result.stale_baseline:
            lines.append(f"  {fingerprint}")
        lines.append(
            "Ratchets only shrink: run --trim-baseline to drop the dead entries."
        )
    if result.new:
        lines.append(f"repro.devtools.check: {len(result.new)} new finding(s)")
        for finding in result.new:
            lines.append(f"  {finding.render()}")
        lines.append("")
        lines.append(
            "Fix the findings, add an inline '# devtools: allow[rule-id]' with a "
            "reason, or accept them with --write-baseline."
        )
    elif not result.stale_baseline:
        lines.append(
            f"repro.devtools.check: OK — {result.modules_scanned} modules, "
            f"{len(result.suppressed)} baselined finding(s), 0 new"
        )
    if result.suppressed and baseline_path is not None:
        lines.append(
            f"({len(result.suppressed)} finding(s) suppressed by {baseline_path})"
        )
    slowest = sorted(result.timings.items(), key=lambda kv: -kv[1])[:3]
    detail = ", ".join(f"{name} {value:.2f}s" for name, value in slowest)
    budget = f" (budget {budget_s:.0f}s)" if budget_s is not None else ""
    lines.append(f"analysis wall-time: {result.elapsed:.2f}s{budget} — {detail}")
    return "\n".join(lines)


def changed_files(repo_root: Path, ref: str) -> frozenset[str]:
    """Repo-relative paths changed vs ``ref`` (tracked diffs plus
    untracked files), for ``--changed-only``."""
    import subprocess

    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise RuntimeError(f"git diff vs {ref!r} failed: {detail.strip()}") from exc
    paths = set(diff.stdout.splitlines()) | set(untracked.stdout.splitlines())
    return frozenset(p.strip() for p in paths if p.strip())


def apply_changed_only(result: CheckResult, changed: frozenset[str]) -> CheckResult:
    """Restrict ``new`` findings to changed files; stale-baseline gating
    is waived (the full run still enforces it in CI)."""
    filtered = [f for f in result.new if f.path in changed]
    return CheckResult(
        findings=result.findings,
        new=filtered,
        suppressed=result.suppressed,
        modules_scanned=result.modules_scanned,
        rules=result.rules,
        by_rule=result.by_rule,
        timings=result.timings,
        concurrency_manifest=result.concurrency_manifest,
        stale_baseline=[],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.check",
        description="TVDP static-analysis suite (layer DAG, concurrency, correctness).",
    )
    parser.add_argument("--root", type=Path, default=None, help="package dir to scan")
    parser.add_argument(
        "--repo-root", type=Path, default=None, help="base dir for reported paths"
    )
    parser.add_argument("--baseline", type=Path, default=None, help="baseline file")
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
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
        help="print ::error workflow-command lines for new findings",
    )
    parser.add_argument(
        "--select",
        default=None,
        help=f"comma-separated rule ids to run (default: all of {', '.join(ALL_RULES)})",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated pass names to run (see --list-passes)",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list pass names with their rule ids and exit",
    )
    parser.add_argument(
        "--write-concurrency-manifest",
        action="store_true",
        help="regenerate tools/concurrency_manifest.json from the tree and exit 0",
    )
    parser.add_argument(
        "--trim-baseline",
        action="store_true",
        help="drop stale baseline entries (finding fixed, suppression left) and exit 0",
    )
    parser.add_argument(
        "--changed-only",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="GIT_REF",
        help=(
            "report only new findings in files changed vs GIT_REF (default "
            "HEAD) — a fast pre-commit mode; manifest drift and stale-baseline "
            "gating are skipped"
        ),
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=None,
        help="fail (exit 1) when total analysis wall-time exceeds this many seconds",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for name, rules in PASSES.items():
            sys.stdout.write(f"{name}: {', '.join(rules)}\n")
        return 0

    _, _, default_baseline = _default_paths()
    baseline_path = args.baseline if args.baseline is not None else default_baseline
    baseline = [] if args.no_baseline else load_baseline(baseline_path)
    select: tuple[str, ...] | None = None
    if args.select:
        select = tuple(part.strip() for part in args.select.split(",") if part.strip())
    if args.only:
        names = [part.strip() for part in args.only.split(",") if part.strip()]
        unknown = [name for name in names if name not in PASSES]
        if unknown:
            sys.stderr.write(
                f"error: unknown pass name(s) {unknown}; see --list-passes\n"
            )
            return 2
        only_rules = tuple(rule for name in names for rule in PASSES[name])
        select = tuple(set(select) & set(only_rules)) if select else only_rules
    if args.write_concurrency_manifest:
        select = PASSES["thread-escape"]
    try:
        result = run_check(
            root=args.root,
            repo_root=args.repo_root,
            baseline=baseline,
            select=select,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.write_concurrency_manifest:
        if result.concurrency_manifest is None:
            sys.stderr.write("error: thread-escape pass did not run\n")
            return 2
        repo_base = args.repo_root if args.repo_root is not None else _default_paths()[1]
        manifest_file = repo_base / "tools" / "concurrency_manifest.json"
        manifest_file.write_text(
            render_concurrency_manifest(result.concurrency_manifest), encoding="utf-8"
        )
        sys.stdout.write(
            f"wrote {len(result.concurrency_manifest['entries'])} "
            f"classification(s) to {manifest_file}\n"
        )
        return 0
    if args.trim_baseline:
        dropped = len(result.stale_baseline)
        write_baseline(baseline_path, result.suppressed)
        sys.stdout.write(
            f"trimmed {dropped} stale entr(ies); {len(result.suppressed)} "
            f"suppression(s) remain in {baseline_path}\n"
        )
        return 0
    if args.changed_only is not None:
        repo_base = args.repo_root if args.repo_root is not None else _default_paths()[1]
        try:
            changed = changed_files(repo_base, args.changed_only)
        except RuntimeError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        result = apply_changed_only(result, changed)
    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        sys.stdout.write(
            f"wrote {len(result.findings)} suppression(s) to {baseline_path}\n"
        )
        return 0
    if args.sarif is not None:
        rules = tuple(select) if select else ALL_RULES
        args.sarif.write_text(
            json.dumps(to_sarif(result.new, rules), indent=2) + "\n", encoding="utf-8"
        )
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.github_annotations:
        for line in github_annotations(result.new):
            sys.stdout.write(line + "\n")
    if args.json:
        sys.stdout.write(json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(_render_human(result, baseline_path, args.budget_s) + "\n")
    if args.budget_s is not None and result.elapsed > args.budget_s:
        sys.stderr.write(
            f"error: analysis took {result.elapsed:.2f}s, over the "
            f"{args.budget_s:.0f}s budget\n"
        )
        return 1
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
