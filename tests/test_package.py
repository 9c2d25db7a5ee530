"""Package hygiene, checked on the source with `ast` (no linter is required).

Every module uses each name it imports, and `one2all.__all__` lists exactly
the names `one2all/__init__.py` imports. The distance layer stays in one
place: only `core` reads a space's distance matrix or names the kernels'
block-size constants.
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


def _mentions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the module mentions."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names, attrs


BLOCK_SIZES = {"_CHUNK_ELEMS", "_GATHER_ELEMS"}


def test_only_core_holds_distance_code():
    core = _parse("core.py")
    assigned = {t.id for node in ast.walk(core) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert BLOCK_SIZES <= assigned
    for name in [*MODULES, "__init__.py"]:
        if name == "core.py":
            continue
        names, attrs = _mentions(_parse(name))
        assert "matrix" not in attrs, f"{name} reads MetricSpace.matrix"
        assert not BLOCK_SIZES & (names | attrs), f"{name} names a kernel block size"
