"""Package hygiene, checked on the source with `ast` (no linter is required).

Every module uses each name it imports, and `one2all.__all__` lists exactly
the names `one2all/__init__.py` imports.
"""

import ast
from pathlib import Path

import pytest

import one2all

SRC = Path(one2all.__file__).resolve().parent


def _parse(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> set[str]:
    """The names that import statements anywhere in the module bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = _parse(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def test_all_lists_exactly_what_init_imports():
    assert sorted(_imported(_parse("__init__.py"))) == sorted(one2all.__all__)
