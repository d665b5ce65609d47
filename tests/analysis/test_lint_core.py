"""Tests for the lint core: suppressions, the rule registry, the
``repro.lint/v1`` artifact, and the ``repro lint`` CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LINT_SCHEMA,
    PARSE_RULE,
    make_lint_artifact,
    resolve_rules,
    rule_descriptions,
    rule_names,
    run_lint,
)
from repro.analysis.lint.core import parse_suppressions
from repro.cli import main

EXPECTED_RULES = (
    "determinism",
    "hash-neutrality",
    "registry-coverage",
    "listener-hygiene",
    "telemetry-purity",
)


def test_rule_registry_complete():
    assert rule_names() == EXPECTED_RULES
    descriptions = rule_descriptions()
    for name in EXPECTED_RULES:
        assert descriptions[name]["description"].strip()
        assert descriptions[name]["scope"] in ("file", "repo")


def test_resolve_select_and_ignore():
    assert [s.name for s in resolve_rules(select=["determinism"])] == [
        "determinism"]
    assert "hash-neutrality" not in [
        s.name for s in resolve_rules(ignore=["hash-neutrality"])]


def test_resolve_unknown_rule_message():
    with pytest.raises(ValueError) as exc:
        resolve_rules(select=["nope"])
    assert str(exc.value) == (
        "unknown lint rule(s): nope (known: determinism, "
        "hash-neutrality, registry-coverage, listener-hygiene, "
        "telemetry-purity)"
    )


def test_parse_rule_is_not_a_registered_rule():
    # parse-error findings cannot be selected away or suppressed.
    assert PARSE_RULE not in rule_names()
    with pytest.raises(ValueError):
        resolve_rules(ignore=[PARSE_RULE])


def test_parse_suppressions():
    source = (
        "x = 1\n"
        "y = 2  # repro-lint: disable=determinism\n"
        "z = 3  # repro-lint: disable=determinism,hash-neutrality\n"
        "w = 4  # repro-lint: disable=all\n"
    )
    sup = parse_suppressions(source)
    assert sup == {
        2: {"determinism"},
        3: {"determinism", "hash-neutrality"},
        4: {"all"},
    }


def _write_dirty_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "mc"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(
        "import random\n"
        "x = random.random()\n"
        "y = random.random()  # repro-lint: disable=determinism\n",
        encoding="utf-8",
    )
    return tmp_path


def test_run_lint_counts_and_artifact(tmp_path):
    root = _write_dirty_tree(tmp_path)
    result = run_lint(paths=[root / "src"], root=root,
                      select=["determinism"])
    assert result.files == 1
    assert len(result.findings) == 1
    assert result.suppressed == 1
    assert not result.clean

    artifact = make_lint_artifact(result)
    assert artifact["schema"] == LINT_SCHEMA
    assert artifact["counts"] == {"determinism": 1}
    assert artifact["suppressed"] == 1
    assert artifact["clean"] is False
    finding = artifact["findings"][0]
    assert finding["path"] == "src/mc/dirty.py"
    assert finding["line"] == 2
    assert finding["rule"] == "determinism"
    # Round-trips through JSON unchanged.
    assert json.loads(json.dumps(artifact)) == artifact


def test_parse_error_reported(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def f(:\n", encoding="utf-8")
    result = run_lint(paths=[pkg], root=tmp_path,
                      select=["determinism"])
    assert len(result.findings) == 1
    assert result.findings[0].rule == PARSE_RULE


def test_cli_json_artifact_and_exit_code(tmp_path, capsys):
    root = _write_dirty_tree(tmp_path)
    out_file = tmp_path / "lint.json"
    code = main([
        "lint", "--root", str(root), "--select", "determinism",
        "--format", "json", "--out", str(out_file),
        str(root / "src"),
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == LINT_SCHEMA
    assert payload == json.loads(out_file.read_text(encoding="utf-8"))


def test_cli_unknown_rule_exits_2(capsys):
    code = main(["lint", "--ignore", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: unknown lint rule(s): bogus")


def test_cli_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Registered lint rules" in out
    for name in EXPECTED_RULES:
        assert name in out
    for info in rule_descriptions().values():
        assert str(info["description"]) in out


def test_cli_text_report_lists_findings(tmp_path, capsys):
    root = _write_dirty_tree(tmp_path)
    code = main(["lint", "--root", str(root), "--select", "determinism",
                 str(root / "src")])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/mc/dirty.py:2:5: determinism:" in out
    assert "1 finding in 1 files (1 rules, 1 suppressed)" in out
