"""Shared machinery of the ``repro lint`` static-analysis pass.

Everything rule-agnostic lives here: the :class:`Finding` record, the
per-file :class:`FileContext` (source, AST, parent links, suppression
map), ``# repro-lint: disable=<rule>`` suppression parsing, file
collection, and the ``repro.lint/v1`` artifact layout. The rules
themselves are plain checker functions registered in
:mod:`repro.analysis.lint.registry`; none of them import this module's
internals beyond the context helpers.

Suppression syntax: a finding on line ``L`` is suppressed when line
``L`` carries a ``# repro-lint: disable=<rule>[,<rule>...]`` comment
naming its rule (or ``all``). Suppressions are same-line by design —
a justification comment next to the flagged construct — so a stale
suppression is visible exactly where the suppressed code lives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

#: Schema id of the machine-readable lint artifact (``--format json``).
LINT_SCHEMA = "repro.lint/v1"

#: Pseudo-rule reported for files the parser cannot read. It is not
#: registered (and therefore cannot be ignored or suppressed): a file
#: that does not parse cannot be certified by any rule.
PARSE_RULE = "parse-error"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,-]+)")


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def payload(self) -> Dict[str, object]:
        """JSON-stable view (the ``repro.lint/v1`` findings entry)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Line -> set of rule names disabled on that line (``all`` wins)."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            names = {part.strip() for part in match.group(1).split(",")}
            out[lineno] = {name for name in names if name}
    return out


class FileContext:
    """One parsed file handed to every file-scope rule checker."""

    def __init__(self, path: Path, rel_path: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        #: child -> parent; AST nodes hash by identity.
        self._parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    @property
    def path_parts(self) -> Tuple[str, ...]:
        """Path segments relative to the lint root (scope matching)."""
        return Path(self.rel_path).parts

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Enclosing nodes of ``node``, innermost first."""
        current = node
        while current in self._parents:
            current = self._parents[current]
            yield current

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at an AST node of this file."""
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        names = self.suppressions.get(finding.line)
        return bool(names) and (finding.rule in names or "all" in names)


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a deterministic ``*.py`` list."""
    out: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def load_context(path: Path, root: Path) -> Union[FileContext, Finding]:
    """Parse one file: its context, or a :data:`PARSE_RULE` finding
    when it cannot be read or parsed."""
    rel = rel_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        message = getattr(exc, "msg", None) or str(exc)
        line = getattr(exc, "lineno", None) or 1
        return Finding(PARSE_RULE, rel, line, 1,
                       f"file does not parse: {message}")
    return FileContext(path, rel, source, tree)


def rel_path(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` when possible, posix-rendered."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run over a set of paths."""

    root: Path
    rules: Tuple[str, ...]
    files: int
    findings: Tuple[Finding, ...]
    suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings


def make_lint_artifact(result: LintResult) -> Dict[str, object]:
    """Serialize a lint run into the ``repro.lint/v1`` schema."""
    counts: Dict[str, int] = {}
    for finding in result.findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema": LINT_SCHEMA,
        "root": str(result.root),
        "rules": list(result.rules),
        "files": result.files,
        "findings": [finding.payload() for finding in result.findings],
        "counts": counts,
        "suppressed": result.suppressed,
        "clean": result.clean,
    }


def format_findings(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = (
        f"{len(result.findings)} {noun} in {result.files} files "
        f"({len(result.rules)} rules, {result.suppressed} suppressed)"
    )
    return "\n".join(lines + [summary])


def dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; ``None`` for non-name bases."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Tuple[Dict[str, Tuple[str, ...]],
                                              Dict[str, Tuple[str, ...]]]:
    """(module aliases, member aliases) for normalizing call chains.

    ``import time as t`` maps ``t`` to ``("time",)``; ``from random
    import random as rnd`` maps ``rnd`` to ``("random", "random")`` —
    so rules can recognize renamed and from-imported spellings of the
    constructs they flag.
    """
    modules: Dict[str, Tuple[str, ...]] = {}
    members: Dict[str, Tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                dotted = tuple((alias.name if alias.asname
                                else alias.name.split(".")[0]).split("."))
                modules[local] = dotted
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                members[local] = tuple(node.module.split(".")) + (alias.name,)
    return modules, members


def normalize_chain(chain: Tuple[str, ...],
                    modules: Dict[str, Tuple[str, ...]],
                    members: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
    """Resolve a call chain through the module's import aliases."""
    head, rest = chain[0], chain[1:]
    if head in members:
        return members[head] + rest
    if head in modules:
        return modules[head] + rest
    return chain
