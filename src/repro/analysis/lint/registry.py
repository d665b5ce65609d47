"""The lint rule registry: one frozen spec per invariant.

Mirrors the repo's registration idiom (``mitigations/registry.py``,
``mc/sched.py``): each rule is a frozen :class:`RuleSpec` carrying its
name, scope, checker and one-line description, held in a single
``_REGISTRY`` dict that both the CLI (``repro lint
--list-rules``, ``--select``/``--ignore`` validation) and the runner
read — so the rule list printed to users can never drift from the
rules that actually run.

Two scopes exist:

* ``file`` rules receive a parsed :class:`~repro.analysis.lint.core.
  FileContext` per file and see nothing else;
* ``repo`` rules receive the lint root once and may import the live
  registries (cross-module invariants cannot be judged one file at a
  time).

:func:`run_lint` is the single entry point: it expands paths, parses
files, dispatches both scopes, applies ``# repro-lint:
disable=<rule>`` suppressions centrally, and returns a sorted
:class:`~repro.analysis.lint.core.LintResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.lint import (
    determinism,
    hash_neutrality,
    listener_hygiene,
    registry_coverage,
    telemetry_purity,
)
from repro.analysis.lint.core import (
    Finding,
    LintResult,
    collect_files,
    load_context,
    parse_suppressions,
)
from repro.sweep.artifacts import git_toplevel


@dataclass(frozen=True)
class RuleSpec:
    """One registered lint rule.

    Attributes:
        name: Registered rule name (``--select``/``--ignore`` token
            and the ``disable=`` suppression token).
        scope: ``"file"`` (checker runs per parsed file) or
            ``"repo"`` (checker runs once against the lint root).
        checker: The checker callable — ``checker(ctx)`` for file
            scope, ``checker(root)`` for repo scope — yielding/returning
            findings. Its defaults (packages, exemptions, allow-lists)
            live in its own signature.
        description: One-line summary printed by ``--list-rules``.
    """

    name: str
    scope: str
    checker: Callable = field(compare=False)
    description: str = ""


_REGISTRY: Dict[str, RuleSpec] = {
    spec.name: spec
    for spec in (
        RuleSpec(
            name=determinism.NAME,
            scope="file",
            checker=determinism.check,
            description=determinism.DESCRIPTION,
        ),
        RuleSpec(
            name=hash_neutrality.NAME,
            scope="file",
            checker=hash_neutrality.check,
            description=hash_neutrality.DESCRIPTION,
        ),
        RuleSpec(
            name=registry_coverage.NAME,
            scope="repo",
            checker=registry_coverage.check,
            description=registry_coverage.DESCRIPTION,
        ),
        RuleSpec(
            name=listener_hygiene.NAME,
            scope="file",
            checker=listener_hygiene.check,
            description=listener_hygiene.DESCRIPTION,
        ),
        RuleSpec(
            name=telemetry_purity.NAME,
            scope="file",
            checker=telemetry_purity.check,
            description=telemetry_purity.DESCRIPTION,
        ),
    )
}


def rule_names() -> Tuple[str, ...]:
    """Registered rule names, in registration order."""
    return tuple(_REGISTRY)


def rule_descriptions() -> Dict[str, Dict[str, object]]:
    """Name -> {scope, description} for CLI listings."""
    return {
        spec.name: {
            "scope": spec.scope,
            "description": spec.description,
        }
        for spec in _REGISTRY.values()
    }


def resolve_rules(select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None
                  ) -> Tuple[RuleSpec, ...]:
    """The rule set a run executes, validating every referenced name.

    ``select`` keeps only the named rules; ``ignore`` then drops
    names. Unknown names in either raise ``ValueError`` with the
    pinned ``unknown lint rule(s): ...`` message.
    """
    unknown = sorted(
        {name for name in (list(select or []) + list(ignore or []))
         if name not in _REGISTRY}
    )
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)} "
            f"(known: {', '.join(_REGISTRY)})"
        )
    names = list(select) if select else list(_REGISTRY)
    ignored = set(ignore or ())
    return tuple(_REGISTRY[name] for name in names if name not in ignored)


def default_root() -> Path:
    """Git toplevel of the current directory when available, else the
    current directory."""
    return git_toplevel(Path.cwd()) or Path(".").resolve()


def _repo_suppressed(finding: Finding, root: Path,
                     cache: Dict[str, Dict[int, set]]) -> bool:
    """Same-line suppression check for repo-scope findings, whose
    files were never parsed into a FileContext."""
    if finding.path not in cache:
        try:
            source = (root / finding.path).read_text(encoding="utf-8")
        except OSError:
            source = ""
        cache[finding.path] = parse_suppressions(source)
    names = cache[finding.path].get(finding.line)
    return bool(names) and (finding.rule in names or "all" in names)


def run_lint(paths: Optional[Sequence[Path]] = None,
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None,
             root: Optional[Path] = None) -> LintResult:
    """Run the (selected) rules over ``paths`` and return the result.

    Defaults: root is the git toplevel (else cwd), paths is
    ``<root>/src``. Findings are sorted by (path, line, col, rule);
    same-line ``# repro-lint: disable=`` suppressions are applied
    centrally and counted.
    """
    root = (root or default_root()).resolve()
    rules = resolve_rules(select, ignore)
    if paths is None:
        paths = [root / "src"]
    files = collect_files([Path(p) for p in paths])

    file_rules = [spec for spec in rules if spec.scope == "file"]
    repo_rules = [spec for spec in rules if spec.scope == "repo"]

    findings: List[Finding] = []
    suppressed = 0
    for path in files:
        ctx = load_context(path, root)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        for spec in file_rules:
            for finding in spec.checker(ctx):
                if ctx.is_suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)

    suppression_cache: Dict[str, Dict[int, set]] = {}
    for spec in repo_rules:
        for finding in spec.checker(root):
            if _repo_suppressed(finding, root, suppression_cache):
                suppressed += 1
            else:
                findings.append(finding)

    return LintResult(
        root=root,
        rules=tuple(spec.name for spec in rules),
        files=len(files),
        findings=tuple(sorted(findings, key=lambda f: f.sort_key)),
        suppressed=suppressed,
    )
