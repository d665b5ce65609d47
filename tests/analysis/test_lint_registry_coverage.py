"""Fixture tests for the ``registry-coverage`` lint rule.

The collect/judge split lets these tests fabricate broken registry
states as plain dicts and assert on :func:`coverage_findings` without
mutating the real registries; the live-state tests then pin that the
real repo both collects correctly and judges clean.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint.registry_coverage import (
    check,
    collect_state,
    coverage_findings,
)

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def _base_state():
    return {
        "registries": {
            "widget": {
                "source": "src/widgets.py",
                "kinds": {"alpha": "the alpha widget"},
            },
        },
        "families": {
            "demo": {
                "source": "src/family.py",
                "description": "demo family",
                "presets": {
                    "p1": {"baseline": "benchmarks/baselines/p1.json",
                           "exists": True},
                },
            },
        },
        "figures": {
            "fig1": {
                "source": "src/figures.py",
                "title": "Figure 1",
                "section": "4.1",
                "sources": ["demo:p1"],
            },
        },
        "cli_choices": {"alpha"},
        "preset_kind_refs": set(),
    }


def test_clean_state_yields_nothing():
    assert list(coverage_findings(_base_state())) == []


def test_missing_description_flagged():
    state = _base_state()
    state["registries"]["widget"]["kinds"]["alpha"] = "  "
    findings = list(coverage_findings(state))
    assert any("has no description" in f.message for f in findings)


def test_unreachable_kind_flagged():
    state = _base_state()
    state["cli_choices"] = set()
    findings = list(coverage_findings(state))
    assert any("not CLI-reachable" in f.message for f in findings)


def test_preset_reachability_counts():
    state = _base_state()
    state["cli_choices"] = set()
    state["preset_kind_refs"] = {"alpha"}
    assert list(coverage_findings(state)) == []


def test_missing_baseline_flagged():
    state = _base_state()
    state["families"]["demo"]["presets"]["p1"]["exists"] = False
    findings = list(coverage_findings(state))
    assert any("no committed baseline" in f.message for f in findings)


def test_dangling_figure_source_flagged():
    state = _base_state()
    state["figures"]["fig1"]["sources"] = ["demo:nope"]
    findings = list(coverage_findings(state))
    assert any("no such preset" in f.message for f in findings)


def test_untitled_figure_flagged():
    state = _base_state()
    state["figures"]["fig1"]["title"] = ""
    findings = list(coverage_findings(state))
    assert any("missing its title" in f.message for f in findings)


def test_live_state_shape():
    state = collect_state(REPO_ROOT)
    registries = state["registries"]
    assert set(registries) == {"mitigation", "attack", "sched", "model"}
    assert len(registries["mitigation"]["kinds"]) >= 7
    assert len(registries["attack"]["kinds"]) >= 8
    assert len(registries["sched"]["kinds"]) >= 4
    assert set(state["families"]) == {
        "sweep", "attack", "model", "mc", "system",
    }
    assert len(state["figures"]) >= 21
    assert state["cli_choices"], "CLI choices walk found nothing"


def test_live_repo_judges_clean():
    assert check(REPO_ROOT) == []

