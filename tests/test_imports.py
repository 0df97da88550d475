"""Import hygiene: no package module imports a name it never uses, every
module-level private function, class and constant is referenced in its own
module, and betti_thermo.__all__ lists exactly what __init__ imports, plus
__version__."""

import ast
from pathlib import Path

import pytest

import betti_thermo

PACKAGE = Path(betti_thermo.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, __future__ features aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = parse(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def private_definitions(tree: ast.Module) -> list[str]:
    """The _names that the module's top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_private_definition_is_used(module):
    tree = parse(module)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [name for name in private_definitions(tree) if name not in loaded] == []


def test_all_lists_exactly_the_imports():
    exported = imported_names(parse("__init__.py")) + ["__version__"]
    assert sorted(betti_thermo.__all__) == sorted(exported)
    assert len(set(betti_thermo.__all__)) == len(betti_thermo.__all__)
