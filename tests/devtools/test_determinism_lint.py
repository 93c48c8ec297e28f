"""Determinism lint: entropy, wall-clock, and set-order escapes."""

from __future__ import annotations

import pytest

from repro.devtools import lint as lint_module


@pytest.fixture
def lint(make_package):
    def _lint(source, filename="m.py"):
        _, modules = make_package({filename: source})
        return lint_module.run_lints(modules, ("determinism",))

    return _lint


class TestEntropyAndClock:
    def test_global_rng_flagged(self, lint):
        findings = lint("import random\n\ndef jitter():\n    return random.random()\n")
        assert len(findings) == 1
        assert "seeded" in findings[0].message

    def test_seeded_rng_instance_is_clean(self, lint):
        findings = lint(
            "import random\n\ndef jitter(seed):\n    return random.Random(seed).random()\n"
        )
        assert findings == []

    def test_wall_clock_flagged(self, lint):
        findings = lint("import time\n\ndef stamp():\n    return time.time()\n")
        assert len(findings) == 1
        assert "resilience.Clock" in findings[0].message

    def test_raw_entropy_flagged(self, lint):
        findings = lint("import os\n\ndef token():\n    return os.urandom(16)\n")
        assert len(findings) == 1

    def test_unseeded_default_rng_flagged(self, lint):
        findings = lint(
            "from numpy.random import default_rng\n\ndef r():\n    return default_rng()\n"
        )
        assert len(findings) == 1
        assert "seed" in findings[0].message

    def test_seeded_default_rng_is_clean(self, lint):
        findings = lint(
            "from numpy.random import default_rng\n\ndef r(seed):\n    return default_rng(seed)\n"
        )
        assert findings == []


class TestSetIteration:
    def test_for_over_set_call_flagged(self, lint):
        findings = lint("def f(items):\n    for x in set(items):\n        yield x\n")
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_sorted_set_is_clean(self, lint):
        findings = lint(
            "def f(items):\n    for x in sorted(set(items)):\n        yield x\n"
        )
        assert findings == []

    def test_comprehension_over_set_literal_flagged(self, lint):
        findings = lint("def f(a, b):\n    return [x for x in {a, b}]\n")
        assert len(findings) == 1

    def test_set_membership_is_clean(self, lint):
        findings = lint("def f(x, allowed):\n    return x in set(allowed)\n")
        assert findings == []


class TestSuppression:
    def test_allow_comment(self, lint):
        findings = lint(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # devtools: allow[determinism]\n"
        )
        assert findings == []

    def test_exempt_glob_skips_module(self, lint, monkeypatch):
        monkeypatch.setattr(lint_module, "DEFAULT_EXEMPT_GLOBS", ("*/pkg/*.py",))
        findings = lint("import time\n\ndef stamp():\n    return time.time()\n")
        assert findings == []
