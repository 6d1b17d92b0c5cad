"""The package's module graph is one-way: every import runs when its module
is loaded, none inside a function body, so no module imports at call time
one that imports it. Imports under `if TYPE_CHECKING:` (annotations only)
are allowed.

Block arithmetic has one owner: only `spaces` (PartitionAlgebra) reads the
incidence matrix or refuses a block that nothing charges.

Hull membership has one owner: only `simplexlp` reads the tolerance and the
pivot limit of a hull test, and no hull test takes them as parameters.

Value equality has one owner: only `spaces.Immutable` defines `__eq__` or
`__hash__`; the value types inherit them.

No module imports a private name (one underscore, not a dunder) from another.

Every setting has one source: the solver's tolerance is the instance's
`options.tol`, which the instance digest hashes, and no command takes a
`--tol` flag; the value verdicts apply VALUE_TOL and take no `tol`."""

import ast
import inspect
from pathlib import Path

import pytest

import robustmse
from robustmse.cli import build_parser
from robustmse.estimator import optimality_ineq
from robustmse.simplexlp import first_outside, hull_membership, solve_lp
from robustmse.stability import is_stable, recursivity_check

MODULES = sorted(Path(robustmse.__file__).parent.glob("*.py"))


def _call_time_imports(tree):
    """(line, function name) of each import inside a function body, outside
    `if TYPE_CHECKING:`."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, function)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)) and function is not None:
            found.append((node.lineno, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _block_layout_uses(tree):
    """(line, what) of each read of an attribute named _incidence and each
    `raise ZeroMassBlockError`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_incidence":
            found.append((node.lineno, "_incidence"))
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "ZeroMassBlockError":
                found.append((node.lineno, "raise ZeroMassBlockError"))
    return sorted(found)


def test_modules_found():
    assert {"estimator.py", "stability.py", "gexp.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _call_time_imports(tree) == []


def test_the_check_sees_a_call_time_import():
    source = """
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .gexp import TreeModel

def f():
    if TYPE_CHECKING:
        from .gexp import TreeModel
    from .stability import is_stable
    return is_stable
"""
    assert _call_time_imports(ast.parse(source)) == [(9, "f")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "spaces"], ids=lambda p: p.stem)
def test_only_spaces_owns_the_block_layout(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _block_layout_uses(tree) == []


def test_the_check_sees_the_block_layout():
    source = """
from . import errors

def f(c, w):
    mass = w @ c._incidence
    if not mass.all():
        raise ZeroMassBlockError(c.blocks[0])
    raise errors.ZeroMassBlockError
"""
    assert _block_layout_uses(ast.parse(source)) == [
        (5, "_incidence"), (7, "raise ZeroMassBlockError"), (8, "raise ZeroMassBlockError"),
    ]


HULL_RULE = {"HULL_TOL", "MAX_PIVOTS"}


def _hull_rule_reads(tree):
    """(line, name) of each name, attribute or import named HULL_TOL or
    MAX_PIVOTS."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(node.lineno, a.name) for a in node.names if a.name in HULL_RULE}
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in HULL_RULE:
            found.add((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "simplexlp"], ids=lambda p: p.stem)
def test_only_simplexlp_states_hull_membership(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _hull_rule_reads(tree) == []


def test_the_check_sees_the_hull_rule():
    source = """
from .simplexlp import HULL_TOL
from . import simplexlp

def f(left, pivots):
    return left <= HULL_TOL and pivots < simplexlp.MAX_PIVOTS
"""
    assert _hull_rule_reads(ast.parse(source)) == [
        (2, "HULL_TOL"), (6, "HULL_TOL"), (6, "MAX_PIVOTS"),
    ]


@pytest.mark.parametrize(
    "fn, params",
    [
        pytest.param(solve_lp, ["c", "A", "b"], id="solve_lp"),
        pytest.param(hull_membership, ["points", "target"], id="hull_membership"),
        pytest.param(first_outside, ["points", "targets"], id="first_outside"),
        pytest.param(is_stable, ["ms", "f"], id="is_stable"),
    ],
)
def test_hull_tests_take_no_tolerance_or_pivot_limit(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def _equality_defs(tree):
    """(line, class) of each `def __eq__` or `def __hash__` in a class body."""
    return sorted(
        (f.lineno, node.name)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in ("__eq__", "__hash__")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_immutable_defines_equality(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {"Immutable"} if path.stem == "spaces" else set()
    assert [name for _, name in _equality_defs(tree) if name not in owner] == []


def test_the_check_sees_an_equality_method():
    source = """
class Record(NamedTuple):
    __eq__, __hash__ = object.__eq__, object.__hash__

class Value(Immutable):
    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0
"""
    assert _equality_defs(ast.parse(source)) == [(6, "Value"), (9, "Value")]


def _private_imports(tree):
    """(line, name) of each `from ... import _name`, dunders aside."""
    return sorted(
        (node.lineno, a.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.name.startswith("_") and not a.name.endswith("__")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == []


def test_the_check_sees_a_private_import():
    source = """
from ._version import __version__
from .sublinear import _means, rho
from .instances import (
    _json_inf,
)
"""
    assert _private_imports(ast.parse(source)) == [(3, "_means"), (4, "_json_inf")]


@pytest.mark.parametrize("fn", [recursivity_check, optimality_ineq], ids=lambda f: f.__name__)
def test_value_verdicts_take_no_tolerance(fn):
    assert "tol" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("command", ["rho", "solve", "oracle", "stability", "gexp", "tcsearch"])
def test_no_command_takes_a_tol_flag(command):
    instance = [] if command == "tcsearch" else ["instance.json"]
    _, unknown = build_parser().parse_known_args([command, *instance, "--tol", "1e-6"])
    assert unknown == ["--tol", "1e-6"]
