"""``tools/bench_compare.py``: regression gates over BENCH documents."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def document(benches: dict) -> dict:
    return {
        "schema_version": 1,
        "git_sha": "abc1234",
        "smoke": True,
        "python": "3.11.0",
        "benches": benches,
    }


def bench(wall_s: float, counters: dict | None = None) -> dict:
    return {
        "wall_s": wall_s,
        "mem_peak_kb": 100.0,
        "counters": counters or {},
        "results": {},
    }


BASELINE = document(
    {
        "benchmarks/bench_a.py::test_a": bench(2.0, {"index.probes": 1_000.0}),
        "benchmarks/bench_b.py::test_b": bench(1.0, {"index.visits": 400.0}),
    }
)


class TestCompare:
    def test_identical_documents_are_clean(self):
        assert bench_compare.compare(BASELINE, BASELINE) == []

    def test_flags_25_percent_wall_regression(self):
        current = document(
            {
                "benchmarks/bench_a.py::test_a": bench(2.5, {"index.probes": 1_000.0}),
                "benchmarks/bench_b.py::test_b": bench(1.0, {"index.visits": 400.0}),
            }
        )
        regressions = bench_compare.compare(BASELINE, current)
        assert len(regressions) == 1
        [r] = regressions
        assert r["kind"] == "wall"
        assert r["bench"] == "benchmarks/bench_a.py::test_a"
        assert r["ratio"] == pytest.approx(1.25)

    def test_flags_25_percent_counter_regression(self):
        current = document(
            {
                "benchmarks/bench_a.py::test_a": bench(2.0, {"index.probes": 1_250.0}),
                "benchmarks/bench_b.py::test_b": bench(1.0, {"index.visits": 400.0}),
            }
        )
        regressions = bench_compare.compare(BASELINE, current)
        assert len(regressions) == 1
        [r] = regressions
        assert r["kind"] == "counter"
        assert r["counter"] == "index.probes"
        assert r["ratio"] == pytest.approx(1.25)

    def test_within_tolerance_is_clean(self):
        current = document(
            {
                "benchmarks/bench_a.py::test_a": bench(2.3, {"index.probes": 1_150.0}),
                "benchmarks/bench_b.py::test_b": bench(1.1, {"index.visits": 440.0}),
            }
        )
        assert bench_compare.compare(BASELINE, current) == []

    def test_skip_wall_ignores_wall_regressions(self):
        current = document(
            {
                "benchmarks/bench_a.py::test_a": bench(9.0, {"index.probes": 1_000.0}),
                "benchmarks/bench_b.py::test_b": bench(9.0, {"index.visits": 400.0}),
            }
        )
        assert bench_compare.compare(BASELINE, current, skip_wall=True) == []

    def test_noise_floors_suppress_tiny_values(self):
        noisy_base = document(
            {"benchmarks/bench_c.py::test_c": bench(0.01, {"tiny.counter": 4.0})}
        )
        noisy_cur = document(
            {"benchmarks/bench_c.py::test_c": bench(0.04, {"tiny.counter": 8.0})}
        )
        # 4x growth on a 10 ms / 4-count bench is noise, not regression.
        assert bench_compare.compare(noisy_base, noisy_cur) == []

    def test_missing_bench_is_a_regression(self):
        current = document(
            {"benchmarks/bench_a.py::test_a": bench(2.0, {"index.probes": 1_000.0})}
        )
        regressions = bench_compare.compare(BASELINE, current)
        assert [r["kind"] for r in regressions] == ["missing"]
        assert regressions[0]["bench"] == "benchmarks/bench_b.py::test_b"

    def test_new_bench_is_not_a_regression(self):
        current = document(
            {
                **BASELINE["benches"],
                "benchmarks/bench_new.py::test_new": bench(5.0),
            }
        )
        assert bench_compare.compare(BASELINE, current) == []

    def test_counter_improvements_are_not_flagged(self):
        current = document(
            {
                "benchmarks/bench_a.py::test_a": bench(1.0, {"index.probes": 500.0}),
                "benchmarks/bench_b.py::test_b": bench(0.5, {"index.visits": 200.0}),
            }
        )
        assert bench_compare.compare(BASELINE, current) == []


class TestMainCli:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", BASELINE)
        assert bench_compare.main([base, base]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_synthetic_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", BASELINE)
        worse = document(
            {
                "benchmarks/bench_a.py::test_a": bench(2.5, {"index.probes": 1_300.0}),
                "benchmarks/bench_b.py::test_b": bench(1.0, {"index.visits": 400.0}),
            }
        )
        cur = self.write(tmp_path, "cur.json", worse)
        assert bench_compare.main([base, cur]) == 1
        out = capsys.readouterr().out
        assert "WALL" in out and "COUNTER" in out

    def test_exit_two_on_bad_schema(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.json", {"schema_version": 99, "benches": {}})
        base = self.write(tmp_path, "base.json", BASELINE)
        assert bench_compare.main([base, bad]) == 2

    def test_custom_tolerance(self, tmp_path):
        base = self.write(tmp_path, "base.json", BASELINE)
        worse = document(
            {
                "benchmarks/bench_a.py::test_a": bench(2.3, {"index.probes": 1_000.0}),
                "benchmarks/bench_b.py::test_b": bench(1.0, {"index.visits": 400.0}),
            }
        )
        cur = self.write(tmp_path, "cur.json", worse)
        assert bench_compare.main([base, cur]) == 0  # 15% < default 20%
        assert bench_compare.main([base, cur, "--wall-tolerance", "0.10"]) == 1


class TestCheckedInBaseline:
    def test_baseline_is_valid_and_covers_all_modules(self):
        baseline = bench_compare.load_document(
            REPO_ROOT / "tools" / "bench_baseline.json"
        )
        assert baseline["schema_version"] == 1
        assert baseline["smoke"] is True
        covered = {
            nodeid.split("::")[0].rsplit("/", 1)[-1] for nodeid in baseline["benches"]
        }
        expected = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        assert covered == expected
        for record in baseline["benches"].values():
            assert {"wall_s", "mem_peak_kb", "counters", "results"} <= set(record)


def load_section(**overrides) -> dict:
    base = {
        "schema_version": 2,
        "seed": 0,
        "smoke": True,
        "zipf_s": 1.1,
        "requests_per_worker": 12,
        "principals": {"count": 2, "mix": {"key:aaaa1111": 24, "key:bbbb2222": 12}},
        "families": {"spatial": 20, "textual": 4},
        "stages": [
            {
                "concurrency": 1,
                "requests": 12,
                "errors": 0,
                "duration_s": 0.1,
                "throughput_rps": 120.0,
                "latency_ms": {"p50": 1.0, "p95": 3.0, "p99": 4.0, "mean": 1.5, "max": 5.0},
            },
            {
                "concurrency": 2,
                "requests": 24,
                "errors": 0,
                "duration_s": 0.15,
                "throughput_rps": 160.0,
                "latency_ms": {"p50": 1.2, "p95": 3.5, "p99": 4.5, "mean": 1.7, "max": 6.0},
            },
        ],
        "hot_queries": [],
        "schedule_digest": "ab" * 32,
    }
    base.update(overrides)
    return base


def with_load(doc: dict, load: dict) -> dict:
    out = dict(doc)
    out["load"] = load
    return out


class TestLoadGating:
    def test_matching_load_sections_are_clean(self):
        base = with_load(BASELINE, load_section())
        assert bench_compare.compare(base, base) == []

    def test_missing_load_section_regresses(self):
        base = with_load(BASELINE, load_section())
        kinds = [r["kind"] for r in bench_compare.compare(base, BASELINE)]
        assert kinds == ["load-missing"]

    def test_no_baseline_load_holds_nothing(self):
        current = with_load(BASELINE, load_section())
        assert bench_compare.compare(BASELINE, current) == []

    def test_digest_drift_with_same_knobs_regresses(self):
        base = with_load(BASELINE, load_section())
        current = with_load(BASELINE, load_section(schedule_digest="cd" * 32))
        kinds = [r["kind"] for r in bench_compare.compare(base, current)]
        assert kinds == ["load-schedule"]

    def test_different_knobs_are_incommensurable(self):
        base = with_load(BASELINE, load_section())
        current = with_load(
            BASELINE, load_section(seed=7, schedule_digest="cd" * 32)
        )
        assert bench_compare.compare(base, current) == []

    def test_per_stage_error_growth_regresses_even_with_skip_wall(self):
        base = with_load(BASELINE, load_section())
        bad = load_section()
        bad["stages"][1] = dict(bad["stages"][1], errors=3)
        current = with_load(BASELINE, bad)
        kinds = [
            r["kind"] for r in bench_compare.compare(base, current, skip_wall=True)
        ]
        assert kinds == ["load-errors"]

    def test_throughput_and_p95_gate_only_with_wall(self):
        base = with_load(BASELINE, load_section())
        bad = load_section()
        bad["stages"][0] = dict(bad["stages"][0], throughput_rps=10.0)
        bad["stages"][1] = dict(
            bad["stages"][1],
            latency_ms=dict(bad["stages"][1]["latency_ms"], p95=50.0),
        )
        current = with_load(BASELINE, bad)
        assert bench_compare.compare(base, current, skip_wall=True) == []
        kinds = sorted(
            r["kind"]
            for r in bench_compare.compare(base, current, skip_wall=False)
            if r["kind"].startswith("load")
        )
        assert kinds == ["load-p95", "load-throughput"]

    def test_load_regressions_format(self):
        base = with_load(BASELINE, load_section())
        bad = load_section(schedule_digest="cd" * 32)
        bad["stages"][0] = dict(bad["stages"][0], errors=2)
        current = with_load(BASELINE, bad)
        for regression in bench_compare.compare(base, current):
            line = bench_compare.format_regression(regression)
            assert regression["kind"].upper().split("-")[0] in line.upper()

    def test_invalid_load_section_fails_document_load(self, tmp_path):
        doc = with_load(BASELINE, load_section(schema_version=99))
        path = tmp_path / "bad_load.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="invalid load section"):
            bench_compare.load_document(path)

    def test_checked_in_baseline_has_valid_load_section(self):
        baseline = bench_compare.load_document(
            REPO_ROOT / "tools" / "bench_baseline.json"
        )
        assert "load" in baseline
        load = baseline["load"]
        assert load["smoke"] is True
        assert load["stages"], "baseline load section must have stages"
        assert all(stage["errors"] == 0 for stage in load["stages"])


def overhead_bench(pct: float, span_pct: float = 50.0, request_us: float = 80.0) -> dict:
    record = bench(1.0)
    record["results"] = {
        "overhead_pct": pct,
        "span_pct": span_pct,
        "request_us": request_us,
    }
    return record


class TestOverheadGate:
    NODE = "benchmarks/bench_obs_overhead.py::test_accounting_overhead"

    def test_within_ceiling_is_clean(self):
        doc = document({self.NODE: overhead_bench(30.0)})
        assert bench_compare.compare(doc, doc) == []

    def test_exactly_at_ceiling_is_clean(self):
        doc = document(
            {
                self.NODE: overhead_bench(
                    bench_compare.OVERHEAD_LIMIT_PCT, bench_compare.SPAN_LIMIT_PCT
                )
            }
        )
        assert bench_compare.compare(doc, doc) == []

    def test_over_ceiling_regresses_even_with_skip_wall(self):
        base = document({self.NODE: overhead_bench(30.0)})
        current = document({self.NODE: overhead_bench(68.5)})
        regressions = bench_compare.compare(base, current, skip_wall=True)
        assert [r["kind"] for r in regressions] == ["overhead"]
        [r] = regressions
        assert r["metric"] == "overhead_pct"
        assert r["current"] == pytest.approx(68.5)
        line = bench_compare.format_regression(r)
        assert "OVERHEAD" in line and "68.5" in line and "50" in line

    def test_span_ceiling_is_gated_beside_the_ledger(self):
        base = document({self.NODE: overhead_bench(30.0)})
        current = document({self.NODE: overhead_bench(30.0, span_pct=210.0)})
        [r] = bench_compare.compare(base, current, skip_wall=True)
        assert (r["kind"], r["metric"]) == ("overhead", "span_pct")
        line = bench_compare.format_regression(r)
        assert "results.span_pct" in line and "210" in line and "100" in line

    @pytest.mark.parametrize("request_us", [8.0, 80.0, 8_000.0])
    def test_serving_speed_moves_neither_verdict(self, request_us):
        """The ratios divide by an un-instrumented index query, so a
        100x slower (or faster) served request neither excuses a costly
        span nor fails a cheap one."""
        base = document({self.NODE: overhead_bench(30.0)})
        cheap = document({self.NODE: overhead_bench(30.0, 50.0, request_us)})
        costly = document({self.NODE: overhead_bench(30.0, 210.0, request_us)})
        assert bench_compare.compare(base, cheap, skip_wall=True) == []
        assert len(bench_compare.compare(base, costly, skip_wall=True)) == 1

    def test_ceiling_binds_the_current_run_not_the_baseline(self):
        # A bad baseline must not excuse (or flag) anything by itself.
        base = document({self.NODE: overhead_bench(99.0, 400.0)})
        current = document({self.NODE: overhead_bench(30.0)})
        assert bench_compare.compare(base, current) == []

    def test_checked_in_baseline_overhead_within_ceiling(self):
        baseline = bench_compare.load_document(
            REPO_ROOT / "tools" / "bench_baseline.json"
        )
        results = [
            record["results"]
            for record in baseline["benches"].values()
            if "overhead_pct" in record.get("results", {})
        ]
        assert results, "baseline must carry the instrumentation-overhead bench"
        for result in results:
            assert result["overhead_pct"] <= bench_compare.OVERHEAD_LIMIT_PCT
            assert result["span_pct"] <= bench_compare.SPAN_LIMIT_PCT
            assert result["span_us"] > 0 and result["plain_query_us"] > 0


class TestMissingBenchesSection:
    def test_candidate_without_benches_gates_cleanly(self):
        """A load-only candidate document is a coverage failure, not a
        KeyError traceback."""
        current = {k: v for k, v in BASELINE.items() if k != "benches"}
        regressions = bench_compare.compare(BASELINE, current)
        kinds = [r["kind"] for r in regressions]
        assert kinds[0] == "section-missing"
        assert set(kinds[1:]) == {"missing"}
        line = bench_compare.format_regression(regressions[0])
        assert "SECTION-MISSING" in line
        assert "benches" in line

    def test_cli_exits_one_with_clear_message(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base = with_load(BASELINE, load_section())
        current = {k: v for k, v in base.items() if k not in ("benches", "load")}
        base_path.write_text(json.dumps(base))
        cur_path.write_text(json.dumps(current))
        rc = bench_compare.main([str(base_path), str(cur_path), "--skip-wall"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SECTION-MISSING" in out
        assert "LOAD-MISSING" in out
        assert "Traceback" not in out

    def test_both_sections_missing_everywhere_is_clean(self):
        bare = {"schema_version": 1, "git_sha": "abc", "smoke": True}
        assert bench_compare.compare(bare, bare) == []
