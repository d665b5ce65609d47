"""The ``hash-neutrality`` rule: every sweep axis decides its identity.

Sweep results are cached and baseline-gated by config hash. When a new
axis (field) lands on a ``*SweepSpec`` dataclass, there are exactly two
correct moves: feed it into the family's identity functions (``points``
builds the hashed config; ``config_hash`` / ``key`` / ``sweep_hash``
define identity directly), or declare its neutral value in the
module's ``_NEUTRAL_AXES`` table so pre-existing baselines and cache
entries survive. A field that does neither is a drift bomb — two specs
that differ only in that field would share a cache entry and a
baseline identity while simulating different things.

This rule parses every dataclass named ``*SweepSpec``, collects the
attribute names consumed inside the module's identity functions
(``points``, ``sweep_hash``, ``config_hash``, ``key``,
``__post_init__``) and the keys of the module-level ``_NEUTRAL_AXES``
literal, and flags any field covered by neither. Identity code a spec
inherits from a class of the shared :mod:`repro.sweep.identity` module
(``SweepSpecBase.sweep_hash`` hashes the spec's ``name``) counts as
that spec's own. ``description`` is exempt by default: it is artifact
metadata and never part of identity.

The check is static by design: it must fail before a corrupted cache
entry or baseline is ever *written*, which no runtime assertion placed
inside the sweep machinery can guarantee (see DESIGN.md).
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.analysis.lint.core import FileContext, Finding

NAME = "hash-neutrality"

DESCRIPTION = (
    "every *SweepSpec dataclass field is consumed by an identity "
    "function (points/sweep_hash/config_hash/key) or listed in "
    "_NEUTRAL_AXES"
)

#: Functions whose attribute reads count as identity consumption.
IDENTITY_FUNCTIONS: Tuple[str, ...] = (
    "points", "sweep_hash", "config_hash", "key", "__post_init__",
)

#: Fields that are artifact metadata by convention, never identity.
DEFAULT_EXEMPT: Tuple[str, ...] = ("description",)

#: The module whose base class gives every family's spec its
#: ``sweep_hash``.
SHARED_IDENTITY_MODULE = (
    Path(__file__).resolve().parents[2] / "sweep" / "identity.py"
)


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _neutral_axis_names(tree: ast.Module) -> Set[str]:
    """String keys of a module-level ``_NEUTRAL_AXES = {...}`` literal."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id == "_NEUTRAL_AXES"
                    and isinstance(value, ast.Dict)):
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                            key.value, str):
                        names.add(key.value)
    return names


def _consumed_attributes(tree: ast.AST) -> Set[str]:
    """Attribute names read anywhere inside the identity functions.

    Point classes and spec classes live in the same module, so the
    walk deliberately credits a spec field when *any* identity
    function touches an attribute of that name (e.g. ``points()``
    forwarding ``self.seed`` into the config that ``config_hash``
    canonicalizes wholesale).
    """
    consumed: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in IDENTITY_FUNCTIONS):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute):
                    consumed.add(sub.attr)
    return consumed


@functools.lru_cache(maxsize=None)
def _shared_bases() -> Dict[str, FrozenSet[str]]:
    """Class name -> attributes its identity methods read, for the
    classes of the shared identity module."""
    tree = ast.parse(SHARED_IDENTITY_MODULE.read_text(encoding="utf-8"))
    return {
        node.name: frozenset(_consumed_attributes(node))
        for node in tree.body if isinstance(node, ast.ClassDef)
    }


def check(ctx: FileContext,
          exempt: Tuple[str, ...] = DEFAULT_EXEMPT) -> Iterator[Finding]:
    spec_classes = [
        node for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
        and node.name.endswith("SweepSpec")
        and _is_dataclass_decorated(node)
    ]
    if not spec_classes:
        return
    consumed = _consumed_attributes(ctx.tree)
    neutral = _neutral_axis_names(ctx.tree)
    for cls in spec_classes:
        covered = consumed | neutral
        for base in cls.bases:
            name = getattr(base, "id", getattr(base, "attr", None))
            covered |= _shared_bases().get(name, frozenset())
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            field_name = stmt.target.id
            if field_name.startswith("_") or field_name in exempt:
                continue
            if field_name in covered:
                continue
            yield ctx.finding(NAME, stmt, (
                f"field '{field_name}' of {cls.name} is neither "
                f"consumed by an identity function "
                f"({'/'.join(IDENTITY_FUNCTIONS)}) nor listed in "
                "_NEUTRAL_AXES — decide its cache identity before a "
                "baseline is written against it"
            ))
