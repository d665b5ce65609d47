"""``repro lint``: registry-driven static analysis of repo invariants.

Five AST/reflection rules enforce the contracts the test suite cannot
see from the outside: determinism of simulation code, hash-neutrality
of sweep spec fields, full registry coverage (descriptions, CLI
reachability, committed baselines), listener-attachment hygiene, and
telemetry purity
(wall-clock reads confined to the sanctioned telemetry scopes). See
``repro lint --list-rules`` and the "Static analysis" section of the
README.
"""

from repro.analysis.lint.core import (
    LINT_SCHEMA,
    PARSE_RULE,
    Finding,
    LintResult,
    format_findings,
    make_lint_artifact,
)
from repro.analysis.lint.registry import (
    RuleSpec,
    default_root,
    resolve_rules,
    rule_descriptions,
    rule_names,
    run_lint,
)

__all__ = [
    "LINT_SCHEMA",
    "PARSE_RULE",
    "Finding",
    "LintResult",
    "RuleSpec",
    "default_root",
    "format_findings",
    "make_lint_artifact",
    "resolve_rules",
    "rule_descriptions",
    "rule_names",
    "run_lint",
]
