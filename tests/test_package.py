"""Package hygiene, checked on the source with `ast` (no linter is required).

Every module uses each name it imports, and `one2all.__all__` lists exactly
the names `one2all/__init__.py` imports. The distance layer stays in one
place: only `core` reads a space's distance matrix or names the kernels'
block-size constants. Only `data` forks, at one call site. Every public entry
point refuses a NaN or infinite parameter, and an eps too small to square.
Every CLI option is read by its command.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import one2all
from one2all import MetricSpace, bench, cli, data, oracle

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


def test_os_fork_is_called_in_one_place():
    # one fork, hand-back and failure protocol for every child process
    sites = [(name, node.lineno) for name in MODULES for node in ast.walk(_parse(name))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "fork" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "os"]
    assert len(sites) == 1 and sites[0][0] == "data.py", sites


_X = np.random.default_rng(0).normal(size=(40, 2))
_SP2 = MetricSpace.euclidean(2.0)
NAN_PARAMETERS = {  # each entry point with one parameter set to x
    "cluster_adaptive eps": lambda x: one2all.cluster_adaptive(_SP2, _X, None, 2, x),
    "draw probabilities": lambda x: one2all.draw(_X, None, np.full(40, x), 0),
    "worst_case_size eps": lambda x: bench.worst_case_size(1000, 2, 2, x),
    "build C": lambda x: oracle.build(_SP2, _X, None, ell=3, C=x, eps=0.3, seed=0),
    "build_feedback eps": lambda x: oracle.build_feedback(_SP2, _X, None, k=2, eps=x, seed=0),
    "from_matrix rho": lambda x: MetricSpace.from_matrix(np.zeros((2, 2)), rho=x),
    "euclidean power": lambda x: MetricSpace.euclidean(x),
    "sweet_spot C": lambda x: one2all.sweet_spot(one2all.run_trace(_SP2, _X, None, 3, 0),
                                                 C=x, eps=0.3),
    "sweet_spot eps": lambda x: one2all.sweet_spot(one2all.run_trace(_SP2, _X, None, 3, 0),
                                                   C=1.0, eps=x),
    "gen_gmm spacing": lambda x: data.gen_gmm(10, 2, 2, seed=0, spacing=x),
}


@pytest.mark.parametrize("call", sorted(NAN_PARAMETERS))
def test_nan_parameters_are_refused(call):
    # NaN fails every comparison, so each check must be one it fails
    with pytest.raises(ValueError):
        NAN_PARAMETERS[call](float("nan"))


# inf for every parameter; an eps whose eps**-2, the scale of every
# sampling probability, overflows a float64; and a power whose 8 rho**2 does
BAD_PARAMETERS = [(call, np.inf) for call in sorted(NAN_PARAMETERS)]
BAD_PARAMETERS += [(call, 1e-300) for call in sorted(NAN_PARAMETERS) if call.endswith("eps")]
BAD_PARAMETERS += [("euclidean power", p) for p in (511.5, 600.0, 1025.0, 2000.0, 1e300)]


@pytest.mark.parametrize("call, x", BAD_PARAMETERS)
def test_infinite_and_overflowing_parameters_are_refused(call, x):
    with pytest.raises(ValueError):
        NAN_PARAMETERS[call](x)


def test_the_smallest_eps_is_taken():
    assert bench.worst_case_size(1000, 2, 2, 2.0**-511) == 1000
    with pytest.raises(ValueError, match="2\\*\\*-511"):
        bench.worst_case_size(1000, 2, 2, 2.0**-512)


def _args_read(function, functions: dict, seen: set) -> set[str]:
    """The `args.<name>` attributes a cli function reads, directly or
    through the cli functions it calls."""
    seen.add(function.name)
    reads = set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions and node.func.id not in seen):
            reads |= _args_read(functions[node.func.id], functions, seen)
    return reads


def test_every_cli_option_is_read_by_its_command():
    functions = {node.name: node for node in _parse("cli.py").body
                 if isinstance(node, ast.FunctionDef)}
    (commands,) = [a for a in cli.build_parser()._actions if a.choices]
    unread, options = [], 0
    for name, parser in commands.choices.items():
        reads = _args_read(functions[parser.get_default("func").__name__], functions, set())
        dests = [a.dest for a in parser._actions if a.option_strings and a.dest != "help"]
        options += len(dests)
        unread += [f"{name}: {dest}" for dest in dests if dest not in reads]
    assert unread == []
    assert options == 45
