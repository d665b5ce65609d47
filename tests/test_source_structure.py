"""Structural claims about ``src/repro`` that no behavioural test sees.

* No state is keyed by the builtin ``id``: an object's id is reused
  once the object dies, so an id-keyed table can answer for the wrong
  object.
* The observability layer and the trace file formats import nothing
  from the simulators at module scope, so the simulators can depend on
  them without import cycles.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent


def _module_scope(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that runs at import: the module body, without the
    bodies of functions and lambdas."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(path: Path) -> List[str]:
    modules: List[str] = []
    for node in _module_scope(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return modules


def test_no_builtin_id_calls():
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not calls, calls


@pytest.mark.parametrize("path", [
    *sorted((SRC / "obs").glob("*.py")), SRC / "trace.py",
], ids=lambda path: str(path.relative_to(SRC)))
def test_module_imports_no_simulator(path):
    simulators = [
        module for module in _imported_modules(path)
        if module.split(".")[:2] in (["repro", "sim"], ["repro", "mc"])
    ]
    assert not simulators, simulators
