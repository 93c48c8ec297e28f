"""The ``python -m repro.devtools.check`` CLI: exit codes, JSON, SARIF, manifest."""

from __future__ import annotations

import json

import pytest

from repro.devtools.check import ALL_RULES, main, run_check

#: One seeded violation per rule class, all in one mini-package.
SEEDED = {
    "low/base.py": "VALUE = 1\n",
    "top/fine.py": "from pkg.low.base import VALUE\n",
    "low/upward.py": "from pkg.top.fine import VALUE\n",  # layer-boundary
    "low/state.py": "_CACHE = {}\n\ndef put(k, v):\n    _CACHE[k] = v\n",
    "low/lints.py": (
        "def risky(fn, into=[]):\n"  # mutable-default
        "    try:\n"
        "        into.append(fn())\n"
        "    except Exception:\n"  # broad-except
        "        print('oops')\n"  # no-print
        "    return into\n"
    ),
    "low/sites.py": "from pkg.low.base import VALUE\n\nBAD = {'lat': 34.0}\n\ndef f(g):\n    return g(lat=-118.24, lng=34.05)\n",
    "low/waits.py": (
        "import time\n"
        "\n"
        "def poll():\n"
        "    time.sleep(0.5)\n"  # no-sleep
    ),
    "low/locks.py": (  # lock-order: two-lock inversion
        "import threading\n"
        "\n"
        "_a = threading.Lock()\n"
        "_b = threading.Lock()\n"
        "\n"
        "def ab():\n"
        "    with _a:\n"
        "        with _b:\n"
        "            pass\n"
        "\n"
        "def ba():\n"
        "    with _b:\n"
        "        with _a:\n"
        "            pass\n"
    ),
    "low/entropy.py": (  # determinism: process-global RNG
        "import random\n"
        "\n"
        "def jitter():\n"
        "    return random.random()\n"
    ),
    "core/platform.py": (  # hot-path: sorted() inside a data-plane loop
        "import threading\n"
        "\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._data = {}\n"
        "\n"
        "    def put(self, k, v):\n"
        "        with self._lock:\n"
        "            self._data[k] = v\n"
        "\n"
        "    def size(self):\n"
        "        return len(self._data)\n"  # atomicity: unlocked read-gap
        "\n"
        "\n"
        "class TVDP:\n"
        "    def __init__(self):\n"
        "        self._seen = {}\n"
        "        self.store = Store()\n"
        "\n"
        "    def execute(self, query):\n"
        "        self._seen[query.name] = 1\n"  # thread-escape: no lock
        "        self.store.put(query.name, self.store.size())\n"
        "        out = []\n"
        "        for group in query.groups:\n"
        "            out.extend(sorted(group))\n"
        "        return out\n"
    ),
    "api/web.py": (  # blocking-in-handler: file IO in a routed handler
        "class WebService:\n"
        "    def __init__(self, router):\n"
        "        router.add('GET', '/dump', self._dump)\n"
        "\n"
        "    def _dump(self, request):\n"
        "        with open('/tmp/state.json') as fh:\n"
        "            return fh.read()\n"
    ),
    # dead-code fires on the unreferenced public defs above (put, risky,
    # poll, ...) without extra seeding.
}


@pytest.fixture
def seeded_tree(make_package):
    from tests.devtools.conftest import TINY_LAYERS

    root, _ = make_package(SEEDED)
    return root, TINY_LAYERS


def _run(root, layers, **kwargs):
    return run_check(root=root, repo_root=root.parent, layer_config=layers, **kwargs)


class TestRunCheck:
    def test_every_rule_fires_on_seeded_tree(self, seeded_tree):
        result = _run(*seeded_tree)
        assert not result.ok
        assert set(result.by_rule) == set(ALL_RULES)

    def test_select_restricts_rules(self, seeded_tree):
        result = _run(*seeded_tree, select=("no-print",))
        assert set(result.by_rule) == {"no-print"}

    def test_unknown_rule_rejected(self, seeded_tree):
        with pytest.raises(ValueError, match="unknown rule"):
            _run(*seeded_tree, select=("not-a-rule",))


class TestCli:
    def test_exit_one_and_report_on_findings(self, seeded_tree, tmp_path, capsys):
        root, _ = seeded_tree
        rc = main(["--root", str(root), "--repo-root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "finding(s)" in out
        assert "[no-print]" in out

    def test_json_report_shape(self, seeded_tree, tmp_path, capsys):
        root, _ = seeded_tree
        rc = main(["--root", str(root), "--repo-root", str(tmp_path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["ok"] is False
        assert report["counts"]["total"] == len(report["findings"])
        assert sum(report["counts"]["by_rule"].values()) == report["counts"]["total"]
        sample = report["findings"][0]
        assert {"rule", "path", "line", "message", "fingerprint"} <= set(sample)

    def test_unknown_select_exits_two(self, seeded_tree, tmp_path, capsys):
        root, _ = seeded_tree
        rc = main(
            ["--root", str(root), "--repo-root", str(tmp_path), "--select", "bogus"]
        )
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_surface_is_nine_flags_and_retired_ones_are_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        flags = {
            word.rstrip(",")
            for word in capsys.readouterr().out.split()
            if word.startswith("--")
        }
        assert flags - {"--help"} == {
            "--root", "--repo-root", "--select", "--json", "--json-out", "--sarif",
            "--github-annotations", "--budget-s", "--write-concurrency-manifest",
        }
        for retired in (
            "--baseline", "--no-baseline", "--write-baseline", "--trim-baseline",
            "--only", "--list-passes", "--changed-only",
        ):
            with pytest.raises(SystemExit) as exit_info:
                main([retired])
            assert exit_info.value.code == 2
            capsys.readouterr()

    def test_sarif_report(self, seeded_tree, tmp_path, capsys):
        root, _ = seeded_tree
        sarif_path = tmp_path / "out.sarif"
        main(
            [
                "--root", str(root), "--repo-root", str(tmp_path),
                "--sarif", str(sarif_path),
            ]
        )
        capsys.readouterr()
        document = json.loads(sarif_path.read_text())
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.devtools.check"
        assert run["results"]
        sample = run["results"][0]
        assert {"ruleId", "message", "locations", "partialFingerprints"} <= set(sample)

    def test_github_annotations(self, seeded_tree, tmp_path, capsys):
        root, _ = seeded_tree
        main(["--root", str(root), "--repo-root", str(tmp_path), "--github-annotations"])
        out = capsys.readouterr().out
        assert "::error file=" in out

    def test_write_manifest(self, make_package, tmp_path, capsys):
        root, _ = make_package(
            {
                "core/platform.py": (
                    "import threading\n"
                    "\n"
                    "class TVDP:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._seen = {}\n"
                    "\n"
                    "    def execute(self, query):\n"
                    "        with self._lock:\n"
                    "            self._seen[query] = 1\n"
                    "        return True\n"
                ),
            }
        )
        args = ["--root", str(root), "--repo-root", str(tmp_path)]
        manifest_file = tmp_path / "tools" / "concurrency_manifest.json"
        manifest_file.parent.mkdir()

        # Without the manifest the pass gates; writing it heals the run.
        rc = main([*args, "--select", "thread-escape"])
        assert rc == 1
        capsys.readouterr()
        assert main([*args, "--write-concurrency-manifest"]) == 0
        assert "wrote 1 classification(s)" in capsys.readouterr().out
        document = json.loads(manifest_file.read_text())
        assert document["schema"] == 1
        (entry,) = document["entries"]
        assert entry["attr"] == "pkg.core.platform.TVDP._seen"
        assert entry["classification"] == "lock-guarded"
        assert main([*args, "--select", "thread-escape"]) == 0


def test_shipped_tree_is_clean(capsys):
    """The acceptance gate: the repo's own source passes every rule."""
    rc = main([])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert f"{len(ALL_RULES)} rules, 0 findings" in out
