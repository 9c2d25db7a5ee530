"""Package hygiene, checked on the source with `ast` (no linter is required).

Every module uses each name it imports, and `one2all.__all__` lists exactly
the names `one2all/__init__.py` imports. The distance layer stays in one
place: only `core` reads a space's distance matrix or names the kernels'
block-size constants. Every public entry point refuses a NaN parameter.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import one2all
from one2all import MetricSpace, bench, oracle

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


_X = np.random.default_rng(0).normal(size=(40, 2))
_SP2 = MetricSpace.euclidean(2.0)
_NAN = float("nan")
NAN_PARAMETERS = {  # NaN fails every comparison, so each check must be one it fails
    "cluster_adaptive eps": lambda: one2all.cluster_adaptive(_SP2, _X, None, 2, _NAN),
    "draw probabilities": lambda: one2all.draw(_X, None, np.full(40, _NAN), 0),
    "worst_case_size eps": lambda: bench.worst_case_size(1000, 2, 2, _NAN),
    "build C": lambda: oracle.build(_SP2, _X, None, ell=3, C=_NAN, eps=0.3, seed=0),
    "build_feedback eps": lambda: oracle.build_feedback(_SP2, _X, None, k=2, eps=_NAN, seed=0),
    "from_matrix rho": lambda: MetricSpace.from_matrix(np.zeros((2, 2)), rho=_NAN),
    "sweet_spot C": lambda: one2all.sweet_spot(one2all.run_trace(_SP2, _X, None, 3, 0), "exact",
                                               C=_NAN, eps=0.3),
    "sweet_spot eps": lambda: one2all.sweet_spot(one2all.run_trace(_SP2, _X, None, 3, 0),
                                                 "exact", C=1.0, eps=_NAN),
}


@pytest.mark.parametrize("call", sorted(NAN_PARAMETERS))
def test_nan_parameters_are_refused(call):
    with pytest.raises(ValueError):
        NAN_PARAMETERS[call]()
