"""Static lock-order analysis: cycles and blocking-under-lock."""

from __future__ import annotations

import pytest

from repro.devtools.callgraph import build_call_graph, build_symbol_table
from repro.devtools.lockorder import analyze_locks, check_lock_order


@pytest.fixture
def analyze(make_package):
    def _analyze(files):
        root, modules = make_package(files)
        table = build_symbol_table(modules, root)
        graph = build_call_graph(table)
        analysis = analyze_locks(table, graph)
        findings = check_lock_order(table, graph, modules, analysis)
        return analysis, findings

    return _analyze


INVERSION = {
    "m.py": """
        import threading

        _a = threading.Lock()
        _b = threading.Lock()

        def ab():
            with _a:
                with _b:
                    pass

        def ba():
            with _b:
                with _a:
                    pass
    """,
}


class TestAcquisitionGraph:
    def test_nested_with_records_edge(self, analyze):
        analysis, _ = analyze(
            {
                "m.py": """
                    import threading

                    _outer = threading.Lock()
                    _inner = threading.Lock()

                    def f():
                        with _outer:
                            with _inner:
                                pass
                """,
            }
        )
        assert ("pkg.m._outer", "pkg.m._inner") in analysis.graph.edges

    def test_self_attr_lock_identified_by_class(self, analyze):
        analysis, _ = analyze(
            {
                "m.py": """
                    import threading

                    class Box:
                        def __init__(self):
                            self._lock = threading.RLock()

                        def get(self):
                            with self._lock:
                                return 1
                """,
            }
        )
        assert "pkg.m.Box._lock" in analysis.graph.locks
        assert "pkg.m.Box._lock" in analysis.may_acquire["pkg.m.Box.get"]

    def test_interprocedural_edge_through_helper(self, analyze):
        """Calling a function that takes lock M while holding L adds
        the L -> M edge even though no ``with`` is nested lexically."""
        analysis, _ = analyze(
            {
                "m.py": """
                    import threading

                    _l = threading.Lock()
                    _m = threading.Lock()

                    def helper():
                        with _m:
                            pass

                    def outer():
                        with _l:
                            helper()
                """,
            }
        )
        edge = analysis.graph.edges[("pkg.m._l", "pkg.m._m")]
        assert edge.via == "pkg.m.helper"


class TestCycleFindings:
    def test_two_lock_inversion_is_a_cycle_finding(self, analyze):
        analysis, findings = analyze(INVERSION)
        assert analysis.graph.cycles() == [["pkg.m._a", "pkg.m._b"]]
        cycle_findings = [f for f in findings if f.scope.startswith("cycle:")]
        assert len(cycle_findings) == 1
        assert "deadlock" in cycle_findings[0].message

    def test_consistent_order_is_clean(self, analyze):
        _, findings = analyze(
            {
                "m.py": """
                    import threading

                    _a = threading.Lock()
                    _b = threading.Lock()

                    def one():
                        with _a:
                            with _b:
                                pass

                    def two():
                        with _a:
                            with _b:
                                pass
                """,
            }
        )
        assert findings == []

    def test_reentrancy_is_not_a_cycle(self, analyze):
        """Same creation-site lock nested in itself (RLock reentrancy)
        must not produce a self-edge."""
        analysis, findings = analyze(
            {
                "m.py": """
                    import threading

                    class Stats:
                        def __init__(self):
                            self._lock = threading.RLock()

                        def summary(self):
                            with self._lock:
                                return self.count()

                        def count(self):
                            with self._lock:
                                return 1
                """,
            }
        )
        assert analysis.graph.cycles() == []
        assert findings == []


class TestBlockingUnderLock:
    def test_direct_io_under_lock_flagged(self, analyze):
        _, findings = analyze(
            {
                "m.py": """
                    import threading

                    _lock = threading.Lock()

                    def save(path, data):
                        with _lock:
                            path.write_text(data)
                """,
            }
        )
        assert len(findings) == 1
        assert "blocking call" in findings[0].message

    def test_transitive_blocking_flagged(self, analyze):
        _, findings = analyze(
            {
                "m.py": """
                    import threading

                    _lock = threading.Lock()

                    def flush_to_disk(path, data):
                        path.write_text(data)

                    def save(path, data):
                        with _lock:
                            flush_to_disk(path, data)
                """,
            }
        )
        assert len(findings) == 1
        assert "flush_to_disk" in findings[0].message

    def test_policy_calls_under_lock_flagged(self, analyze):
        """A retry or breaker call may back off for seconds: held under a
        lock it is reported by the policy's name alone, whatever the
        callable it runs."""
        _, findings = analyze(
            {
                "resilience/policies.py": """
                    class Retry:
                        def __init__(self, max_attempts=3):
                            self.max_attempts = max_attempts

                        def call(self, fn):
                            return fn()

                    class CircuitBreaker:
                        def __init__(self, name):
                            self.name = name

                        def call(self, fn):
                            return fn()
                """,
                "m.py": """
                    import threading

                    from pkg.resilience.policies import CircuitBreaker, Retry

                    _lock = threading.Lock()

                    def work():
                        return 1

                    def retried():
                        with _lock:
                            return Retry(max_attempts=3).call(work)

                    def guarded():
                        breaker = CircuitBreaker("m")
                        with _lock:
                            return breaker.call(work)
                """,
            }
        )
        assert [finding.message.split(" — ")[0] for finding in findings] == [
            "m.retried holds pkg.m._lock across blocking call Retry().call",
            "m.guarded holds pkg.m._lock across blocking call breaker.call",
        ]

    def test_allow_comment_suppresses(self, analyze):
        _, findings = analyze(
            {
                "m.py": (
                    "import threading\n"
                    "\n"
                    "_lock = threading.Lock()\n"
                    "\n"
                    "def save(path, data):\n"
                    "    with _lock:\n"
                    "        path.write_text(data)  # devtools: allow[lock-order]\n"
                ),
            }
        )
        assert findings == []
