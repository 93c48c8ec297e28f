"""Hot-path cost pass: per-item work on the data-plane closure."""

from __future__ import annotations

import pytest

from repro.devtools.callgraph import build_call_graph, build_symbol_table
from repro.devtools.hotpath import check_hot_path, load_cost_model, model_hot_sites

PLATFORM_HEAD = """
    import numpy as np

    class TVDP:
        def execute(self, query):
            return self._run_spatial(query)

"""


@pytest.fixture
def run(make_package):
    def _run(files, cost_model=None):
        root, modules = make_package(files)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        return check_hot_path(modules, table, graph, cost_model=cost_model)

    return _run


def test_numpy_in_loop_flagged(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            out = []
            for row in query.rows:
                out.append(np.linalg.norm(row - query.vector))
            return out
"""
        }
    )
    assert len(findings) == 1
    assert "NumPy call np.linalg.norm()" in findings[0].message
    assert "vectorised" in findings[0].message


def test_sorted_in_loop_flagged(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            out = []
            for group in query.groups:
                out.extend(sorted(group))
            return out
"""
        }
    )
    assert len(findings) == 1
    assert "repeated sorted()" in findings[0].message


def test_scan_driving_loop_flagged(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            hits = []
            for row in self.db.all_rows():
                hits.append(row)
            return hits
"""
        }
    )
    assert len(findings) == 1
    assert "O(n) access path" in findings[0].message


def test_bare_scan_on_query_path_flagged(run):
    # One full-table scan call, not in any loop.
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            return self.db.scan(query.predicate)
"""
        }
    )
    assert len(findings) == 1
    assert "scans the full collection on a query path" in findings[0].message


def test_n_plus_one_lookup_flagged(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            return [self.db.table("images").get(i) for i in query.ids]
"""
        }
    )
    assert len(findings) == 1
    assert "N+1" in findings[0].message


def test_outside_closure_not_flagged(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def offline_report(self):
            out = []
            for row in self.rows:
                out.append(np.mean(row))
            return out
"""
        }
    )
    assert findings == []


def test_cost_model_hot_site_sanctions(run):
    files = {
        "core/platform.py": PLATFORM_HEAD
        + """
        def _run_spatial(self, query):
            out = []
            for row in query.rows:
                out.append(np.linalg.norm(row - query.vector))
            return out
"""
    }
    model = {
        "spatial": {
            "hot_sites": ["pkg.core.platform.TVDP._run_spatial"],
        }
    }
    assert run(files, cost_model=model) == []


def test_stale_hot_site_is_a_finding(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            return []
""",
            "core/costmodel.py": """
    COST_MODEL = {
        "spatial": {
            "hot_sites": ["pkg.core.platform.TVDP._run_gone"],
        },
    }
""",
        }
    )
    assert len(findings) == 1
    assert "stale" in findings[0].message
    assert findings[0].scope == "pkg.core.platform.TVDP._run_gone"
    assert findings[0].path.endswith("costmodel.py")


def test_allow_comment_suppresses(run):
    findings = run(
        {
            "core/platform.py": PLATFORM_HEAD
            + """
        def _run_spatial(self, query):
            out = []
            for group in query.groups:
                # devtools: allow[hot-path] groups are tiny (<= 4)
                out.extend(sorted(group))
            return out
"""
        }
    )
    assert findings == []


def test_load_cost_model_from_tree(make_package):
    _, modules = make_package(
        {
            "core/costmodel.py": """
    COST_MODEL = {
        "visual": {
            "cost": "O(c*d)",
            "hot_sites": ["pkg.index.lsh.LSH._rank"],
        },
    }
"""
        }
    )
    model, module, line = load_cost_model(modules)
    assert module is not None and module.rel_path.endswith("costmodel.py")
    assert line > 0
    assert model["visual"]["cost"] == "O(c*d)"
    assert model_hot_sites(model) == frozenset({"pkg.index.lsh.LSH._rank"})


def test_real_tree_cost_model_covers_real_sites():
    # Every hot site the shipped COST_MODEL sanctions must exist, and
    # the data plane must carry no un-modelled per-item work.
    from pathlib import Path

    from repro.devtools.findings import collect_modules

    repo = Path(__file__).resolve().parents[2]
    src_root = repo / "src" / "repro"
    modules = collect_modules(src_root, repo_root=repo)
    table = build_symbol_table(modules, src_root)
    graph = build_call_graph(table)
    assert check_hot_path(modules, table, graph) == []
    model, _, _ = load_cost_model(modules)
    assert {"spatial", "visual", "categorical", "textual", "temporal", "hybrid"} <= set(
        model
    )
