"""Concurrency lint: module-level mutable state.

(Unlocked writes to *instance* state are the whole-program
``thread-escape`` pass's job — see ``corpus/thread_escape.py``.)
"""

from __future__ import annotations

from repro.devtools.concurrency import check_module_state


class TestModuleState:
    def test_unlocked_global_dict_write_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/registry.py": """
                _CACHE = {}

                def put(key, value):
                    _CACHE[key] = value
                """
            }
        )
        findings = check_module_state(modules)
        assert [f.rule for f in findings] == ["module-mutable-state"]
        assert "_CACHE" in findings[0].message

    def test_locked_write_passes(self, make_package):
        _, modules = make_package(
            {
                "low/registry.py": """
                import threading

                _CACHE = {}
                _cache_lock = threading.Lock()

                def put(key, value):
                    with _cache_lock:
                        _CACHE[key] = value
                """
            }
        )
        assert check_module_state(modules) == []

    def test_read_only_registry_passes(self, make_package):
        _, modules = make_package(
            {
                "low/registry.py": """
                _FAMILIES = {"spatial": 1, "textual": 2}

                def lookup(kind):
                    return _FAMILIES[kind]
                """
            }
        )
        assert check_module_state(modules) == []

    def test_global_rebind_outside_lock_flagged(self, make_package):
        _, modules = make_package(
            {
                "low/singleton.py": """
                _instance = None

                def get():
                    global _instance
                    if _instance is None:
                        _instance = object()
                    return _instance
                """
            }
        )
        findings = check_module_state(modules)
        assert [f.rule for f in findings] == ["module-mutable-state"]
        assert "global _instance" in findings[0].message

    def test_global_rebind_under_lock_passes(self, make_package):
        _, modules = make_package(
            {
                "low/singleton.py": """
                import threading

                _instance = None
                _lock = threading.Lock()

                def get():
                    global _instance
                    with _lock:
                        if _instance is None:
                            _instance = object()
                        return _instance
                """
            }
        )
        assert check_module_state(modules) == []

    def test_inline_allow_suppresses(self, make_package):
        _, modules = make_package(
            {
                "low/registry.py": """
                _CACHE = {}

                def put(key, value):
                    _CACHE[key] = value  # devtools: allow[module-mutable-state]
                """
            }
        )
        assert check_module_state(modules) == []

    def test_fingerprint_stable_across_line_shifts(self, make_package):
        source = "_CACHE = {}\n\ndef put(key, value):\n    _CACHE[key] = value\n"
        _, before = make_package({"low/registry.py": source})
        _, after = make_package(
            {"low/registry.py": "# a new leading comment\n" + source}, package="pkg2"
        )
        fp = lambda mods: sorted(
            f.fingerprint.split(":", 1)[1].split("/", 1)[1]
            for f in check_module_state(mods)
        )
        assert fp(before) == fp(after) != []
