"""Thread-escape pass: shared-state classification and manifest drift."""

from __future__ import annotations

import pytest

from repro.devtools.callgraph import build_call_graph, build_symbol_table
from repro.devtools.threadescape import (
    analyze_escape,
    build_concurrency_manifest,
    check_thread_escape,
    DEFAULT_CONCURRENT_ROOTS,
    discover_handlers,
)


@pytest.fixture
def run(make_package):
    def _run(files, checked_in=None):
        root, modules = make_package(files)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        return check_thread_escape(table, graph, checked_in=checked_in)

    return _run


@pytest.fixture
def analyze(make_package):
    def _analyze(files):
        root, modules = make_package(files)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        return analyze_escape(table, graph)

    return _analyze


UNGUARDED = {
    "core/platform.py": """
        class TVDP:
            def __init__(self):
                self._seen = {}

            def execute(self, query):
                self._seen[query] = 1
                return len(self._seen)
    """,
}

GUARDED = {
    "core/platform.py": """
        import threading

        class TVDP:
            def __init__(self):
                self._lock = threading.Lock()
                self._seen = {}

            def execute(self, query):
                with self._lock:
                    self._seen[query] = 1
                return True
    """,
}


class TestClassification:
    def test_unlocked_mutation_from_root_is_a_finding(self, run):
        findings, manifest, _ = run(UNGUARDED)
        assert len(findings) == 1
        assert findings[0].scope == "TVDP._seen"
        assert "without a consistent lock" in findings[0].message
        # Findings never become accepted manifest state.
        assert all(e["attr"] != "pkg.core.platform.TVDP._seen" for e in manifest["entries"])

    def test_locked_mutation_is_classified_not_flagged(self, analyze):
        analysis = analyze(GUARDED)
        record = analysis.attrs[("pkg.core.platform.TVDP", "_seen")]
        assert record.classification == "lock-guarded"
        assert record.guard.endswith("_lock")

    def test_construction_only_attr_is_immutable(self, analyze):
        analysis = analyze(
            {
                "core/platform.py": """
                    class TVDP:
                        def __init__(self):
                            self._limit = {"max": 10}

                        def execute(self, query):
                            return self._limit["max"]
                """,
            }
        )
        record = analysis.attrs[("pkg.core.platform.TVDP", "_limit")]
        assert record.classification == "immutable"

    def test_write_into_a_held_container_counts_against_the_attr(self, analyze, run):
        """``self._by_column[c].insert(..)`` / ``del self._by_column[c][i]``
        mutate the state ``_by_column`` holds (db.Table's ordered index)."""
        source = """
            import threading

            class TVDP:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._by_column = {"t": []}

                def execute(self, query):
                    with self._lock:
                        self._by_column["t"].insert(0, query)
                        del self._by_column["t"][0]
                    return True
        """
        record = analyze({"core/platform.py": source}).attrs[
            ("pkg.core.platform.TVDP", "_by_column")
        ]
        assert record.classification == "lock-guarded"
        unlocked = source.replace("with self._lock:", "if True:")
        findings, _, _ = run({"core/platform.py": unlocked})
        assert [f.scope for f in findings] == ["TVDP._by_column"]

    def test_unreachable_class_stays_out(self, analyze):
        analysis = analyze(
            {
                "core/platform.py": """
                    class Orphan:
                        def __init__(self):
                            self._data = {}

                        def poke(self):
                            self._data["x"] = 1

                    class TVDP:
                        def execute(self, query):
                            return query
                """,
            }
        )
        assert ("pkg.core.platform.Orphan", "_data") not in analysis.attrs


class TestManifestDrift:
    def test_missing_manifest_is_a_finding(self, run):
        findings, manifest, _ = run(GUARDED)
        assert manifest["entries"]
        assert len(findings) == 1
        assert findings[0].scope == "manifest"
        assert "missing" in findings[0].message

    def test_matching_manifest_is_clean(self, make_package):
        root, modules = make_package(GUARDED)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        _, manifest, _ = check_thread_escape(table, graph)
        findings, _, _ = check_thread_escape(table, graph, checked_in=manifest)
        assert findings == []

    def test_stale_manifest_is_a_finding(self, make_package):
        root, modules = make_package(GUARDED)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        _, manifest, _ = check_thread_escape(table, graph)
        stale = dict(manifest, entries=[])
        findings, _, _ = check_thread_escape(table, graph, checked_in=stale)
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_manifest_is_deterministic(self, make_package):
        root, modules = make_package(GUARDED)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        analysis = analyze_escape(table, graph)
        first = build_concurrency_manifest(analysis, DEFAULT_CONCURRENT_ROOTS)
        second = build_concurrency_manifest(analysis, DEFAULT_CONCURRENT_ROOTS)
        assert first == second
        (entry,) = first["entries"]
        assert entry["attr"] == "pkg.core.platform.TVDP._seen"
        assert entry["classification"] == "lock-guarded"


def test_discover_handlers_finds_router_registrations(make_package):
    root, modules = make_package(
        {
            "api/web.py": """
                class WebService:
                    def __init__(self, router):
                        router.add('GET', '/stats', self._stats)

                    def _stats(self, request):
                        return {}
            """,
        }
    )
    table = build_symbol_table(modules, root)
    assert "pkg.api.web.WebService._stats" in discover_handlers(table)
