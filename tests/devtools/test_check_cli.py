"""The ``python -m repro.devtools.check`` CLI: exit codes, JSON, baseline."""

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
    "index/structure.py": (
        "class Index:\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def insert(self, item):\n"
        "        self._items.append(item)\n"  # unlocked-mutation
    ),
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
    "api/entry.py": (  # exception-flow: builtin escaping the taxonomy
        "def handle():\n"
        "    raise RuntimeError('boom')\n"
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
    # dead-code fires on the unreferenced public defs above (put, Index,
    # risky, poll, ...) without extra seeding.
}


@pytest.fixture
def seeded_tree(make_package):
    from tests.devtools.conftest import TINY_LAYERS

    root, _ = make_package(SEEDED)
    critical = ("*/pkg/index/*.py",)
    return root, TINY_LAYERS, critical


def _run(root, layers, critical, **kwargs):
    return run_check(
        root=root,
        repo_root=root.parent,
        layer_config=layers,
        critical_globs=critical,
        **kwargs,
    )


class TestRunCheck:
    def test_every_rule_fires_on_seeded_tree(self, seeded_tree):
        result = _run(*seeded_tree)
        assert not result.ok
        assert set(result.by_rule) == set(ALL_RULES)

    def test_select_restricts_rules(self, seeded_tree):
        root, layers, critical = seeded_tree
        result = _run(root, layers, critical, select=("no-print",))
        assert set(result.by_rule) == {"no-print"}

    def test_unknown_rule_rejected(self, seeded_tree):
        root, layers, critical = seeded_tree
        with pytest.raises(ValueError, match="unknown rule"):
            _run(root, layers, critical, select=("not-a-rule",))

    def test_baseline_absorbs_one_occurrence_each(self, seeded_tree):
        root, layers, critical = seeded_tree
        first = _run(root, layers, critical)
        baseline = [f.fingerprint for f in first.findings]
        second = _run(root, layers, critical, baseline=baseline)
        assert second.ok
        assert len(second.suppressed) == len(first.findings)
        # A duplicated entry must not grant a second free violation.
        third = _run(root, layers, critical, baseline=baseline[1:])
        assert len(third.new) == 1


class TestCli:
    def test_exit_one_and_report_on_findings(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(["--root", str(root), "--repo-root", str(tmp_path), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "new finding(s)" in out
        assert "[no-print]" in out

    def test_json_report_shape(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(
            ["--root", str(root), "--repo-root", str(tmp_path), "--no-baseline", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["ok"] is False
        assert report["counts"]["new"] == len(report["new_findings"])
        sample = report["new_findings"][0]
        assert {"rule", "path", "line", "message", "fingerprint"} <= set(sample)

    def test_write_baseline_then_green(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        baseline = tmp_path / "baseline.json"
        args = ["--root", str(root), "--repo-root", str(tmp_path), "--baseline", str(baseline)]
        assert main([*args, "--write-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(args) == 0
        assert "baselined" in capsys.readouterr().out

    def test_unknown_select_exits_two(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(
            ["--root", str(root), "--repo-root", str(tmp_path), "--select", "bogus"]
        )
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        from repro.devtools.check import PASSES

        assert main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in PASSES:
            assert f"{name}:" in out
        assert "hot-path" in out

    def test_only_selects_pass_rules(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(
            [
                "--root", str(root), "--repo-root", str(tmp_path),
                "--no-baseline", "--only", "hot-path", "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        fired = {f["rule"] for f in report["new_findings"]}
        assert fired == {"hot-path"}

    def test_unknown_only_exits_two(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(
            ["--root", str(root), "--repo-root", str(tmp_path), "--only", "bogus"]
        )
        assert rc == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_sarif_report(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        sarif_path = tmp_path / "out.sarif"
        main(
            [
                "--root", str(root), "--repo-root", str(tmp_path),
                "--no-baseline", "--sarif", str(sarif_path),
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
        root, _, _ = seeded_tree
        main(
            [
                "--root", str(root), "--repo-root", str(tmp_path),
                "--no-baseline", "--github-annotations",
            ]
        )
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
        rc = main([*args, "--no-baseline", "--only", "thread-escape"])
        assert rc == 1
        capsys.readouterr()
        assert main([*args, "--write-concurrency-manifest"]) == 0
        assert "wrote 1 classification(s)" in capsys.readouterr().out
        document = json.loads(manifest_file.read_text())
        assert document["schema"] == 1
        (entry,) = document["entries"]
        assert entry["attr"] == "pkg.core.platform.TVDP._seen"
        assert entry["classification"] == "lock-guarded"
        assert main([*args, "--no-baseline", "--only", "thread-escape"]) == 0


class TestBaselineRatchet:
    """The ratchet only shrinks: dead suppressions are failures."""

    #: ``core`` is in the default layer DAG, so this tree has no findings.
    CLEAN = {"core/fine.py": "VALUE = 1\n"}

    def test_stale_baseline_fails_even_when_tree_is_clean(
        self, make_package, tmp_path, capsys
    ):
        root, _ = make_package(self.CLEAN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(["no-print:low/gone.py:gone"]), encoding="utf-8"
        )
        rc = main(
            ["--root", str(root), "--repo-root", str(tmp_path), "--baseline", str(baseline)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale baseline" in out
        assert "--trim-baseline" in out

    def test_trim_baseline_drops_dead_entries(self, make_package, tmp_path, capsys):
        root, _ = make_package(self.CLEAN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(["no-print:low/gone.py:gone"]), encoding="utf-8"
        )
        args = ["--root", str(root), "--repo-root", str(tmp_path), "--baseline", str(baseline)]
        assert main([*args, "--trim-baseline"]) == 0
        assert "trimmed 1 stale entr" in capsys.readouterr().out
        assert json.loads(baseline.read_text())["suppressions"] == []
        assert main(args) == 0


class TestChangedOnly:
    def _git(self, cwd, *argv):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=cwd, check=True, capture_output=True,
        )

    @pytest.fixture
    def committed_tree(self, seeded_tree, tmp_path):
        root, _, _ = seeded_tree
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        return root, tmp_path

    def test_unchanged_tree_is_green(self, committed_tree, capsys):
        root, repo = committed_tree
        rc = main(
            [
                "--root", str(root), "--repo-root", str(repo),
                "--no-baseline", "--changed-only", "HEAD",
            ]
        )
        assert rc == 0, capsys.readouterr().out
        # The same tree without the restriction still fails: the filter,
        # not the tree, made the run green.
        capsys.readouterr()
        assert main(["--root", str(root), "--repo-root", str(repo), "--no-baseline"]) == 1

    def test_findings_match_full_run_on_changed_files(self, committed_tree, capsys):
        """Parity pin: the restricted run reports exactly the full run's
        findings for the files that changed — no more, no fewer."""
        root, repo = committed_tree
        target = root / "low" / "lints.py"
        target.write_text(target.read_text() + "\n# touched\n", encoding="utf-8")

        main(["--root", str(root), "--repo-root", str(repo), "--no-baseline", "--json"])
        full = json.loads(capsys.readouterr().out)
        rc = main(
            [
                "--root", str(root), "--repo-root", str(repo),
                "--no-baseline", "--changed-only", "HEAD", "--json",
            ]
        )
        restricted = json.loads(capsys.readouterr().out)
        assert rc == 1
        changed_path = target.relative_to(repo).as_posix()
        expected = {
            f["fingerprint"] for f in full["new_findings"] if f["path"] == changed_path
        }
        assert expected
        assert {f["fingerprint"] for f in restricted["new_findings"]} == expected

    def test_stale_baseline_is_waived_for_incremental_runs(
        self, committed_tree, tmp_path, capsys
    ):
        root, repo = committed_tree
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(["no-print:low/gone.py:gone"]), encoding="utf-8"
        )
        rc = main(
            [
                "--root", str(root), "--repo-root", str(repo),
                "--baseline", str(baseline), "--changed-only", "HEAD",
            ]
        )
        capsys.readouterr()
        # Incremental runs answer "did MY change add findings"; only the
        # full run owns the ratchet.
        assert rc == 0

    def test_outside_a_repo_exits_two(self, seeded_tree, tmp_path, capsys):
        root, _, _ = seeded_tree
        rc = main(
            [
                "--root", str(root), "--repo-root", str(tmp_path),
                "--no-baseline", "--changed-only", "HEAD",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


def test_shipped_tree_is_clean(capsys):
    """The acceptance gate: the repo's own source passes every rule with
    an empty baseline."""
    rc = main(["--no-baseline"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 new" in out
