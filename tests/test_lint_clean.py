"""The lint gate: ``repro lint`` over ``src/`` reports zero findings.

This is the enforcement half of the static-analysis subsystem: the
rules themselves live in ``repro.analysis.lint`` and are unit-tested
against fixtures in ``tests/analysis/``; this test pins the *repo* to
a clean state so a PR that introduces an unseeded RNG, an unhashed
sweep axis, an unregistered/undescribed kind, or a leaky listener
attachment fails CI even when no behavioral test happens to cover the
new code path.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint import format_findings, rule_names, run_lint

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def test_src_is_lint_clean():
    result = run_lint(paths=[REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.rules == rule_names()
    assert result.files > 0
    assert result.clean, "\n" + format_findings(result)


def test_cli_lint_exits_zero(capsys):
    from repro.cli import main

    code = main(["lint", "--root", str(REPO_ROOT),
                 str(REPO_ROOT / "src")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 findings" in out
