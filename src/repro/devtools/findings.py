"""Finding records and the one suppression mechanism.

A finding is one rule violation at one source location.  The only way
to accept one is an inline ``# devtools: allow[rule-id] — reason`` on
(or directly above) the offending line: the justification sits next to
the code it excuses and disappears with it.

Findings carry a *fingerprint* — ``rule:path:scope`` where ``scope`` is
the enclosing ``class.method`` (or the imported package, for layer
findings) — that is stable across unrelated edits to the file, so
reports (JSON, SARIF) can be compared between runs.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

_ALLOW_RE = re.compile(r"#\s*devtools:\s*allow\[([a-z0-9_,\- ]+)\]")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    scope: str = ""  # enclosing qualname / import target; fingerprint part

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.scope}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(slots=True)
class SourceModule:
    """One parsed module plus everything the passes need from it."""

    path: Path  # absolute
    rel_path: str  # repo-relative, forward slashes
    text: str
    tree: ast.Module
    allow_lines: dict[int, frozenset[str]] = field(default_factory=dict)
    #: line -> enclosing qualname, built on first use
    _scopes: dict[int, str] | None = None

    def allows(self, rule: str, line: int) -> bool:
        """True when an ``# devtools: allow[rule]`` comment covers
        ``line`` (same line or the line directly above)."""
        for lineno in (line, line - 1):
            rules = self.allow_lines.get(lineno)
            if rules is not None and (rule in rules or "all" in rules):
                return True
        return False

    def scope_at(self, line: int) -> str:
        """Enclosing ``Class.method`` qualname of ``line``
        (``"<module>"`` at module level)."""
        if self._scopes is None:
            self._scopes = enclosing_scopes(self.tree)
        return self._scopes.get(line, "<module>")

    def report(
        self,
        out: list[Finding],
        rule: str,
        line: int,
        message: str,
        scope: str = "",
        also: tuple[int, ...] = (),
    ) -> None:
        """Append a finding at ``line`` unless an allow-comment for
        ``rule`` covers it (or one of the ``also`` lines — the ``def``
        a finding belongs to, say)."""
        if not any(self.allows(rule, at) for at in (line, *also)):
            out.append(Finding(rule, self.rel_path, line, message, scope))


def parse_module(path: Path, rel_path: str) -> SourceModule | None:
    """Parse one file; returns ``None`` for unreadable/unparsable files
    (the check CLI reports those separately)."""
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    return SourceModule(
        path=path, rel_path=rel_path, text=text, tree=tree, allow_lines=_allow_lines(text)
    )


def _allow_lines(text: str) -> dict[int, frozenset[str]]:
    """Allow markers by line, read from comment tokens only: a marker
    quoted in a docstring or a string literal excuses nothing."""
    allow_lines: dict[int, frozenset[str]] = {}
    if _ALLOW_RE.search(text) is None:
        return allow_lines
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        match = _ALLOW_RE.search(token.string) if token.type == tokenize.COMMENT else None
        if match:
            allow_lines[token.start[0]] = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
    return allow_lines


def collect_modules(root: Path, repo_root: Path | None = None) -> list[SourceModule]:
    """Parse every ``*.py`` under ``root``; paths are reported relative
    to ``repo_root`` (default: ``root``'s parent)."""
    base = repo_root if repo_root is not None else root.parent
    modules = []
    for path in sorted(root.rglob("*.py")):
        try:
            rel = path.relative_to(base).as_posix()
        except ValueError:
            rel = path.as_posix()
        module = parse_module(path, rel)
        if module is not None:
            modules.append(module)
    return modules


def enclosing_scopes(tree: ast.Module) -> dict[int, str]:
    """Map each statement line to its enclosing ``Class.method``
    qualname (module-level lines map to ``"<module>"``)."""
    scopes: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno) or child.lineno
                for lineno in range(child.lineno, end + 1):
                    scopes[lineno] = qualname
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes
