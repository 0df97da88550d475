"""Import hygiene: no package module imports a name it never uses, and
betti_thermo.__all__ lists exactly what __init__ imports, plus __version__."""

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


def test_all_lists_exactly_the_imports():
    exported = imported_names(parse("__init__.py")) + ["__version__"]
    assert sorted(betti_thermo.__all__) == sorted(exported)
    assert len(set(betti_thermo.__all__)) == len(betti_thermo.__all__)
