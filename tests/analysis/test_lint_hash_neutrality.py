"""Fixture tests for the ``hash-neutrality`` lint rule.

The final test is the acceptance demo from the issue: deleting a
field's consumption from the *real* ``sweep/spec.py`` identity path
must produce a finding.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.analysis.lint.core import FileContext
from repro.analysis.lint.hash_neutrality import check

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

CLEAN_SPEC = """
    from dataclasses import dataclass

    _NEUTRAL_AXES = {"subchannels": 1}

    @dataclass(frozen=True)
    class DemoSweepSpec:
        name: str
        description: str
        seed: int
        subchannels: int

        def points(self):
            return [{"name": self.name, "seed": self.seed}]
"""


def test_clean_spec_passes(lint_rule):
    assert lint_rule(check, CLEAN_SPEC, rel_path="sweep/demo.py") == []


def test_unconsumed_field_flagged(lint_rule):
    findings = lint_rule(check, """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class DemoSweepSpec:
            name: str
            stray_axis: int

            def points(self):
                return [{"name": self.name}]
    """, rel_path="sweep/demo.py")
    assert len(findings) == 1
    assert "stray_axis" in findings[0].message
    assert "_NEUTRAL_AXES" in findings[0].message


def test_neutral_axis_passes(lint_rule):
    findings = lint_rule(check, """
        from dataclasses import dataclass

        _NEUTRAL_AXES = {"stray_axis": 0}

        @dataclass(frozen=True)
        class DemoSweepSpec:
            name: str
            stray_axis: int

            def points(self):
                return [{"name": self.name}]
    """, rel_path="sweep/demo.py")
    assert findings == []


def test_description_exempt_by_default(lint_rule):
    findings = lint_rule(check, """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class DemoSweepSpec:
            name: str
            description: str

            def key(self):
                return self.name
    """, rel_path="sweep/demo.py")
    assert findings == []


def test_non_dataclass_and_non_spec_classes_ignored(lint_rule):
    findings = lint_rule(check, """
        from dataclasses import dataclass

        class LooseSweepSpec:
            field_a: int

        @dataclass
        class NotASpec:
            field_b: int
    """, rel_path="sweep/demo.py")
    assert findings == []


def test_identity_credit_spans_point_classes(lint_rule):
    # points() forwards fields into a Point whose key()/config_hash()
    # consume them; any identity function in the module gives credit.
    findings = lint_rule(check, """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class DemoPoint:
            ath: int

            def config_hash(self):
                return hash(self.ath)

        @dataclass(frozen=True)
        class DemoSweepSpec:
            name: str
            ath: int

            def points(self):
                return [DemoPoint(ath=self.ath) for _ in [self.name]]
    """, rel_path="sweep/demo.py")
    assert findings == []


def _lint_real_spec_source(source: str):
    ctx = FileContext(
        path=REPO_ROOT / "src/repro/sweep/spec.py",
        rel_path="src/repro/sweep/spec.py",
        source=source,
        tree=ast.parse(source),
    )
    return [f for f in check(ctx) if not ctx.is_suppressed(f)]


def test_real_spec_is_clean_at_head():
    source = (REPO_ROOT / "src/repro/sweep/spec.py").read_text(
        encoding="utf-8")
    assert _lint_real_spec_source(source) == []


def test_deleting_real_field_consumption_fails():
    """Acceptance demo: drop ``seed`` from the real spec's identity
    path — both the ``seed=self.seed`` forwarding in ``points()`` and
    the ``seed=`` segment of ``SweepPoint.key`` — and the rule must
    fire on the now-unhashed field."""
    source = (REPO_ROOT / "src/repro/sweep/spec.py").read_text(
        encoding="utf-8")
    assert "seed=self.seed," in source
    assert "|seed={c.seed}" in source
    broken = source.replace("seed=self.seed,", "seed=0,")
    broken = broken.replace("|seed={c.seed}", "")
    findings = _lint_real_spec_source(broken)
    assert any("'seed'" in f.message for f in findings), findings


def test_identity_inherited_from_the_shared_base_counts(lint_rule):
    # SweepSpecBase.sweep_hash (repro.sweep.identity) hashes ``name``.
    findings = lint_rule(check, """
        from dataclasses import dataclass

        from repro.sweep.identity import SweepSpecBase

        @dataclass(frozen=True)
        class DemoSweepSpec(SweepSpecBase):
            name: str
            seed: int

            def points(self):
                return [self.seed]
    """, rel_path="sweep/demo.py")
    assert findings == []


def test_inherited_credit_needs_the_shared_base(lint_rule):
    findings = lint_rule(check, """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class DemoSweepSpec:
            name: str
            seed: int

            def points(self):
                return [self.seed]
    """, rel_path="sweep/demo.py")
    assert len(findings) == 1
    assert "'name'" in findings[0].message
