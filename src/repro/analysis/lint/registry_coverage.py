"""The ``registry-coverage`` rule: registries stay fully wired.

Every behavior in this repo is registered somewhere — mitigation
policies, attack kinds, schedulers, analytic model kinds,
sweep families/presets, paper figures — and each registration carries
three promises:

1. a one-line **description** (CLI listings and the README are
   generated from registry metadata, so an undescribed kind is
   invisible in every listing);
2. **CLI reachability** (a kind nobody can invoke from ``repro`` is
   dead weight: it appears in no preset and no ``choices=``, so no
   test or baseline can exercise it end to end);
3. for presets, a **committed baseline** under
   ``benchmarks/baselines/`` (the zero-tolerance gates only protect
   presets that have one).

Unlike the other rules this one is *repo-scope*: it imports the live
registries and cross-references them, because the invariants span
modules (a preset in ``sweep/`` vs a baseline file on disk vs an
argparse ``choices=`` in ``cli.py``). The state collection
(:func:`collect_state`) is separated from the pure judgement
(:func:`coverage_findings`) so fixture tests can fabricate broken
states without touching the real registries.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.lint.core import Finding, rel_path

NAME = "registry-coverage"

DESCRIPTION = (
    "every registered kind has a description and a CLI path, and "
    "every sweep preset has a committed baseline"
)

def _parser_choices(parser: argparse.ArgumentParser) -> Set[str]:
    """Every ``choices=`` string and subcommand name under a parser."""
    out: Set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.add(str(name))
                out |= _parser_choices(sub)
        elif action.choices is not None:
            out.update(str(choice) for choice in action.choices)
    return out


def _preset_kind_refs(families: Dict[str, object]) -> Set[str]:
    """Kind names any registered preset exercises through its points.

    A kind with no ``choices=`` entry is still CLI-reachable when a
    preset grid includes it (``repro model sweep safe-trh`` runs the
    ``safe-trh`` model kind even though no flag names it).
    """
    refs: Set[str] = set()
    for family in families.values():
        for spec in family.presets.values():
            for point in spec.points():
                kind = getattr(point, "kind", None)
                if isinstance(kind, str):
                    refs.add(kind)
                for nested_name in ("policy", "attack", "model", "spec"):
                    nested = getattr(point, nested_name, None)
                    nested_kind = getattr(nested, "kind", None)
                    if isinstance(nested_kind, str):
                        refs.add(nested_kind)
    return refs


def _module_rel_path(module: object, root: Path) -> str:
    return rel_path(Path(getattr(module, "__file__", "?")), root)


def _anchor(source_path: Path, name: str) -> int:
    """Best-effort line of ``name`` as a quoted literal in a source
    file (registries register kinds by string name), else line 1."""
    try:
        source = source_path.read_text(encoding="utf-8")
    except OSError:
        return 1
    for quoted in (f'"{name}"', f"'{name}'"):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if quoted in line:
                return lineno
    return 1


def collect_state(root: Path) -> Dict[str, object]:
    """Snapshot the live registries into a plain-data state dict."""
    from repro import cli
    from repro.attacks import registry as attack_module
    from repro.mc import sched as sched_module
    from repro.mitigations import registry as mitigation_module
    from repro.report import figures as figures_module
    from repro.sweep import family as family_module
    from repro.sweep import model_spec as model_module

    registries = {
        label: {
            "source": _module_rel_path(module, root),
            "kinds": {kind.name: kind.description for kind in kinds},
        }
        for label, module, kinds in (
            ("mitigation", mitigation_module, mitigation_module.POLICY_KINDS),
            ("attack", attack_module, attack_module.ATTACK_KINDS),
            ("sched", sched_module, sched_module.SCHED_KINDS),
            ("model", model_module, model_module.MODEL_KINDS),
        )
    }

    families = {}
    family_source = _module_rel_path(family_module, root)
    for name, family in family_module.FAMILIES.items():
        families[name] = {
            "source": family_source,
            "description": family.description,
            "presets": {
                preset: {
                    "baseline": rel_path(
                        family.default_baseline_path(preset, root), root),
                    "exists": family.default_baseline_path(
                        preset, root).is_file(),
                }
                for preset in family.presets
            },
        }

    figures = {}
    figure_source = _module_rel_path(figures_module, root)
    for name, spec in figures_module.FIGURES.items():
        figures[name] = {
            "source": figure_source,
            "title": spec.title,
            "section": spec.section,
            "sources": list(spec.source_keys()),
        }

    return {
        "registries": registries,
        "families": families,
        "figures": figures,
        "cli_choices": _parser_choices(cli.build_parser()),
        "preset_kind_refs": _preset_kind_refs(family_module.FAMILIES),
    }


def coverage_findings(state: Dict[str, object],
                      root: Optional[Path] = None) -> Iterator[Finding]:
    """Pure judgement over a :func:`collect_state`-shaped dict."""
    root = root or Path(".")

    def anchored(source: str, name: str) -> int:
        return _anchor(root / source, name)

    cli_choices: Set[str] = set(state.get("cli_choices", ()))
    kind_refs: Set[str] = set(state.get("preset_kind_refs", ()))

    for label, registry in sorted(state.get("registries", {}).items()):
        source = registry["source"]
        for kind, description in sorted(registry["kinds"].items()):
            if not str(description).strip():
                yield Finding(NAME, source, anchored(source, kind), 1, (
                    f"registered {label} kind '{kind}' has no "
                    "description; CLI listings are generated from "
                    "registry metadata"
                ))
            if kind not in cli_choices and kind not in kind_refs:
                yield Finding(NAME, source, anchored(source, kind), 1, (
                    f"registered {label} kind '{kind}' is not "
                    "CLI-reachable: it appears in no argparse choices "
                    "and no registered preset exercises it"
                ))

    for name, family in sorted(state.get("families", {}).items()):
        source = family["source"]
        if not str(family.get("description", "")).strip():
            yield Finding(NAME, source, anchored(source, name), 1, (
                f"sweep family '{name}' has no description"
            ))
        for preset, info in sorted(family["presets"].items()):
            if not info["exists"]:
                yield Finding(NAME, source, anchored(source, preset), 1, (
                    f"preset '{preset}' of family '{name}' has no "
                    f"committed baseline at {info['baseline']}; the "
                    "zero-tolerance gate cannot protect it"
                ))

    families: Dict[str, object] = state.get("families", {})
    for name, figure in sorted(state.get("figures", {}).items()):
        source = figure["source"]
        if not str(figure.get("title", "")).strip() or not str(
                figure.get("section", "")).strip():
            yield Finding(NAME, source, anchored(source, name), 1, (
                f"figure '{name}' is missing its title or paper "
                "section; 'repro report list' renders both"
            ))
        for source_key in figure.get("sources", ()):
            family_name, _, preset = str(source_key).partition(":")
            presets = families.get(family_name, {}).get("presets", {})
            if preset not in presets:
                yield Finding(NAME, source, anchored(source, name), 1, (
                    f"figure '{name}' references source "
                    f"'{source_key}' but no such preset is "
                    "registered"
                ))


def check(root: Path) -> List[Finding]:
    """Repo-scope entry point: collect live state, judge it."""
    return list(coverage_findings(collect_state(root), root))
