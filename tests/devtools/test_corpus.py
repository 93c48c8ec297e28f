"""Seeded-mutation corpus: the suite's recall test.

Each file under ``corpus/`` is one minimal module injecting exactly one
known bug pattern; its first line names the rule that must catch it and
where the module sits in a throwaway ``repro`` package.  The *whole*
suite runs over each case and must report that rule once and nothing
else — a pass that goes blind, or one that starts firing on its
neighbours' cases, fails here before it fails on the tree.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.devtools.check import main, run_check

CORPUS = Path(__file__).parent / "corpus"
_HEADER = re.compile(r"# corpus: (?P<rule>[a-z-]+) -> repro/(?P<path>\S+)")


def _cases() -> list[tuple[str, str, str]]:
    cases = []
    for path in sorted(CORPUS.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        match = _HEADER.match(source)
        assert match is not None, f"{path.name}: missing '# corpus:' header"
        cases.append((match["rule"], match["path"], source))
    return cases


CASES = _cases()


def test_corpus_has_one_case_per_rule():
    from repro.devtools.check import ALL_RULES

    assert sorted(rule for rule, _, _ in CASES) == sorted(ALL_RULES)


@pytest.mark.parametrize(
    "rule, rel_path, source", CASES, ids=[rule for rule, _, _ in CASES]
)
def test_case_fires_exactly_its_rule(rule, rel_path, source, tmp_path):
    root = tmp_path / "repro"
    target = root / rel_path
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    for package in (root, target.parent):
        (package / "__init__.py").write_text("", encoding="utf-8")
    # The accepted classifications are checked in on a real tree; here
    # they are generated first so only the seeded bug is left to report.
    (tmp_path / "tools").mkdir()
    argv = ["--root", str(root), "--repo-root", str(tmp_path)]
    assert main([*argv, "--write-concurrency-manifest"]) == 0

    result = run_check(root=root, repo_root=tmp_path)
    assert [f.rule for f in result.findings] == [rule], [
        f.render() for f in result.findings
    ]
