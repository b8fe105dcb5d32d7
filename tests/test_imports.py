"""Every name a module of the package imports is used there, every private
helper it defines is referenced there, and every name the package exports
resolves: a deletion leaves no dead import, orphaned helper or stale
export behind."""

import ast
from pathlib import Path

import pytest

import mvortho

SRC = Path(mvortho.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree) -> dict:
    """{bound name: line} for each import of the module, ``__future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree) -> list:
    """The string entries of the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported_names(tree))
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced(path):
    """Each module-level ``_name`` function or class is read somewhere in its
    module: a helper whose last caller went is deleted with it."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    orphans = [f"{node.name} (line {node.lineno})" for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in used]
    assert orphans == []


def test_every_export_resolves():
    assert len(set(mvortho.__all__)) == len(mvortho.__all__)
    assert [name for name in mvortho.__all__ if not hasattr(mvortho, name)] == []
