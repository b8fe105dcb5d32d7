"""Every name a module of the package imports is used there, every private
helper it defines is referenced there, and every name the package exports
resolves: a deletion leaves no dead import, orphaned helper or stale
export behind.  The layers import downwards only, as their source reads.
The command line's import path loads none of the standard modules that
cost start-up and that nothing in the package needs, and only the command
line touches the collector."""

import ast
import subprocess
import sys
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


def package_imports(name: str) -> set:
    """The package modules that module ``name`` imports, directly or through
    another package module, read from the ``from .x import`` and
    ``from . import x`` statements of their source: nothing is imported."""
    seen, todo = set(), [name]
    while todo:
        for node in ast.walk(ast.parse((SRC / f"{todo.pop()}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                for module in [node.module] if node.module else [a.name for a in node.names]:
                    if module not in seen:
                        seen.add(module)
                        todo.append(module)
    return seen


# the modules below the suite: every one but verify and the entry points
LAYERS = [p.stem for p in MODULES if p.stem not in ("verify", "cli", "__init__", "__main__")]


def test_polynomials_import_nothing_above_core():
    """The eigenvalues are facts of the operators, so the polynomial layer
    reads neither the operators, the measures nor the suite."""
    assert package_imports("polynomials") & {"operators", "measures", "verify"} == set()
    assert "core" in package_imports("polynomials")


@pytest.mark.parametrize("name", LAYERS)
def test_no_layer_imports_the_suite(name):
    assert "verify" not in package_imports(name)


def test_only_the_operators_read_the_rate_form():
    """The families declare their rate form, and only :mod:`mvortho.operators`
    reads it: the stencils, the integer rates and the eigenvalues."""
    readers, declared = set(), set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "rate_form":
                readers.add(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "rate_form":
                declared.add(path.stem)
    assert (readers, declared) == ({"operators"}, {"families"})


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"], ids=lambda p: p.name)
def test_only_the_cli_touches_the_collector(path):
    """``cli.main`` freezes the start-up heap once per process; a library call
    such as ``run_suite`` must leave the collector as its caller set it."""
    tree = ast.parse(path.read_text())
    assert "gc" not in imported_names(tree)
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "gc"
                   for node in ast.walk(tree))
    assert not any(isinstance(node, ast.Name) and node.id == "gc" for node in ast.walk(tree))


# Prints the modules loaded once ``mvortho.cli`` is imported from the given source directory.
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import mvortho.cli; print(*sys.modules)"


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    """In a fresh interpreter without ``site`` (which may load ``typing``
    itself), importing the command line loads argparse, showing the probe
    sees its imports, and none of dataclasses, inspect or typing."""
    loaded = set(subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC.parent)],
                                capture_output=True, text=True, check=True,
                                timeout=30).stdout.split())
    assert "argparse" in loaded
    assert {"dataclasses", "inspect", "typing"} & loaded == set()
