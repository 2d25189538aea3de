"""Every module-level import in the package is used.

A static check over ``src/selfscore/*.py``: a name a module imports at top
level must appear in its code or in an annotation (the modules use
``from __future__ import annotations``, and some annotations are strings).
"""

import ast
from pathlib import Path

import pytest

import selfscore

MODULES = sorted(Path(selfscore.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = names_in(tree)
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= names_in(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert unused == {}, f"{path.name}: unused imports {unused}"
