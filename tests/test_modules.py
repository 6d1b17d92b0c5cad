"""The package's module graph is one-way: every import runs when its module
is loaded, none inside a function body or under `if TYPE_CHECKING:`, so no
module imports at call time one that imports it.

A set is read through one protocol, measures.SetQueries: no annotation names
the union `MeasureSet | TreeModel`, and the protocol's members are the
queries that tests/test_set_queries.py checks on every kind of set.

Block arithmetic has one owner: only `spaces` (PartitionAlgebra) reads the
incidence matrix or refuses a block that nothing charges.

Hull membership has one owner: only `simplexlp` reads the tolerance and the
pivot limit of a hull test, and no hull test takes them as parameters.

Value equality has one owner: only `spaces.Immutable` defines `__eq__` or
`__hash__`; the value types inherit them.

No module imports a private name (one underscore, not a dunder) from another.

No tolerance is a setting: the solver and its certificates read the
constants SADDLE_TOL, MAX_ADDITIONS and NS_TOL and take no `tol` or `cfg`,
no command takes a `--tol` flag, and the value verdicts apply VALUE_TOL and
take no `tol`.

The set is read through its queries: `sublinear` and `estimator` never
read `weights_matrix` (the certificates read the witness's rows, and their
hull_membership fallbacks every row, through `rows`), neither `estimator`
nor `cli` branches on the kind of set (isinstance of MeasureSet or
TreeModel), and `cmd_oracle` reads no `inst.tree`. The envelopes have one
path, the set's `envelopes` query (tree_envelopes, _conditional_means, the
recursivity grid's _upper_envelope and _upper are gone, checked with the
helpers below): MeasureSet has no conditional_means, `sublinear` and
`stability` name no conditional_means and call no np.fmax or np.fmin, and
g_expectation takes (tm, xi_leaf) alone, as the inf recursion is the
tree's lower envelope.

No module builds a tree's corner matrix: none calls tree_measure_set, which
gexp keeps as the tests' reference, and Instance has no generators().

The package exports what it computes with: `__all__` lists exactly the names
`__init__` imports, and helpers that nothing used (truncate, block_project,
reference_measure, density with AbsoluteContinuityError, Measure.mass,
measures.is_proper, now the set's query, the certificates' whole-matrix
_centered_moments and the parse's _plain_matrix pass) and kernel_interval's
stability flag are gone."""

import ast
import inspect
from pathlib import Path

import pytest

import robustmse
from robustmse.cli import build_parser
from robustmse.estimator import certify, ns_condition, optimality_ineq, solve_mmse, verify_saddle
from robustmse.gexp import compare_gexp_mmse, g_expectation
from robustmse.instances import Instance
from robustmse.measures import Measure, MeasureSet
from robustmse.simplexlp import first_outside, hull_membership, solve_lp
from robustmse.stability import KernelInterval, is_stable, kernel_interval, recursivity_check
from test_set_queries import QUERIES

MODULES = sorted(Path(robustmse.__file__).parent.glob("*.py"))


def _call_time_imports(tree):
    """(line, function name) of each import inside a function body."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and function is not None:
            found.append((node.lineno, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _block_layout_uses(tree):
    """(line, what) of each read of an attribute named _order or _starts (the
    points in block order and where each block starts) and each
    `raise ZeroMassBlockError`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_order", "_starts"):
            found.append((node.lineno, node.attr))
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
from .sublinear import rho

def f():
    if rho is None:
        from .gexp import TreeModel
    from .stability import is_stable
    return is_stable
"""
    assert _call_time_imports(ast.parse(source)) == [(6, "f"), (7, "f")]


def _type_checking_imports(tree):
    """Lines of the imports under `if TYPE_CHECKING:` or `if typing.TYPE_CHECKING:`."""
    return sorted(
        child.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING"
        for child in ast.walk(node)
        if isinstance(child, (ast.Import, ast.ImportFrom))
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_under_type_checking(path):
    # an annotation names SetQueries, which measures defines, not a set kind
    # that a module could import only for its annotations
    assert _type_checking_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_a_type_checking_import():
    source = """
import typing
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .gexp import TreeModel

def f():
    if typing.TYPE_CHECKING:
        import numpy as np
    return 1
"""
    assert _type_checking_imports(ast.parse(source)) == [5, 9]


def _set_unions(tree):
    """Lines of the annotations (of parameters, returns and assignments) that
    join MeasureSet and TreeModel in a union."""
    found = set()
    for node in ast.walk(tree):
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in filter(None, notes):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(note)}
            union = any(isinstance(getattr(n, "op", None), ast.BitOr) for n in ast.walk(note))
            if union and {"MeasureSet", "TreeModel"} <= names:
                found.add(note.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_annotation_joins_the_set_kinds(path):
    # a function that reads a set through its queries takes a SetQueries
    assert _set_unions(ast.parse(path.read_text())) == []


def test_the_check_sees_a_union_of_set_kinds():
    source = """
def f(ms: MeasureSet | TreeModel, other: MeasureSet | None, *rest: gexp.TreeModel | m.MeasureSet):
    kind: TreeModel | int | MeasureSet = ms
    return kind

def g(ms: SetQueries) -> MeasureSet | TreeModel:
    return ms
"""
    assert _set_unions(ast.parse(source)) == [2, 3, 6]


def test_set_queries_are_the_queries_the_conformance_test_checks():
    path = Path(robustmse.__file__).parent / "measures.py"
    assert _methods(ast.parse(path.read_text()), "SetQueries") == sorted(QUERIES)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "spaces"], ids=lambda p: p.stem)
def test_only_spaces_owns_the_block_layout(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _block_layout_uses(tree) == []


def test_the_check_sees_the_block_layout():
    source = """
from . import errors

def f(c, w):
    mass = np.add.reduceat(w[..., c._order], c._starts, axis=-1)
    if not mass.all():
        raise ZeroMassBlockError(c.blocks[0])
    raise errors.ZeroMassBlockError
"""
    assert _block_layout_uses(ast.parse(source)) == [
        (5, "_order"), (5, "_starts"),
        (7, "raise ZeroMassBlockError"), (8, "raise ZeroMassBlockError"),
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


@pytest.mark.parametrize(
    "fn", [solve_mmse, verify_saddle, ns_condition, certify, compare_gexp_mmse],
    ids=lambda f: f.__name__,
)
def test_solver_and_certificates_take_no_settings(fn):
    assert not {"tol", "cfg"} & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("command", ["rho", "solve", "oracle", "stability", "gexp", "tcsearch"])
def test_no_command_takes_a_tol_flag(command):
    instance = [] if command == "tcsearch" else ["instance.json"]
    _, unknown = build_parser().parse_known_args([command, *instance, "--tol", "1e-6"])
    assert unknown == ["--tol", "1e-6"]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(robustmse.__file__).read_text())
    imported = [
        a.asname or a.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for a in node.names if a.name != "annotations"
    ]
    assert sorted(robustmse.__all__) == sorted(imported)


@pytest.mark.parametrize(
    "module, name",
    [
        ("spaces", "truncate"), ("spaces", "block_project"), ("measures", "reference_measure"),
        ("measures", "density"), ("errors", "AbsoluteContinuityError"),
        # the envelopes' other paths, replaced by the set's envelopes query
        ("gexp", "tree_envelopes"), ("sublinear", "_conditional_means"),
        ("stability", "_upper_envelope"), ("stability", "_upper"),
        # properness is the set's query, MeasureSet.is_proper
        ("measures", "is_proper"),
        # the matrix passes of the certificates and of the generator parse
        ("estimator", "_centered_moments"), ("instances", "_plain_matrix"),
    ],
)
def test_unused_helpers_are_gone(module, name):
    assert not hasattr(robustmse, name)
    assert not hasattr(getattr(robustmse, module), name)


def test_measure_has_no_mass_method():
    assert not hasattr(Measure, "mass")


def test_instance_has_no_generators_method():
    # every command reads the set through Instance.measures(), or, for the
    # filtration-only stability command, Instance.measure_set
    assert not hasattr(Instance, "generators")


def _calls_of(tree, name):
    """Lines that call a function or method named name."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_builds_the_corner_matrix(path):
    # a tree is solved, certified and queried on its TreeModel;
    # tree_measure_set stays in gexp as the tests' reference
    assert _calls_of(ast.parse(path.read_text()), "tree_measure_set") == []


def test_the_check_sees_a_corner_matrix_build():
    source = """
from .gexp import tree_measure_set
from . import gexp

def generators(inst):
    if inst.tree is not None:
        return tree_measure_set(inst.tree)
    return gexp.tree_measure_set(inst.tree), tree_measure_set
"""
    assert _calls_of(ast.parse(source), "tree_measure_set") == [7, 8]


def test_kernel_interval_returns_the_band_alone():
    # whether the band is the kernel is not decided there: is_stable is only necessary
    assert list(inspect.signature(kernel_interval).parameters) == ["ms", "xi", "c"]
    assert KernelInterval._fields == ("lower", "upper")


def _attribute_reads(tree, attr, function=None):
    """Lines that read an attribute named attr: in the whole tree, or in the
    body of the function of that name."""
    if function is not None:
        tree = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
        )
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


@pytest.mark.parametrize(
    "module, function", [("sublinear", None), ("estimator", "brute_force_mmse")]
)
def test_reads_the_set_through_its_queries(module, function):
    path = Path(robustmse.__file__).parent / f"{module}.py"
    assert _attribute_reads(ast.parse(path.read_text()), "weights_matrix", function) == []


def test_the_check_sees_a_weights_matrix_read():
    source = """
def brute_force_mmse(ms, k):
    W = ms.weights_matrix
    return W[k]

def other(ms):
    return ms.weights_matrix
"""
    tree = ast.parse(source)
    assert _attribute_reads(tree, "weights_matrix", "brute_force_mmse") == [3]
    assert _attribute_reads(tree, "weights_matrix") == [3, 7]


def _weights_matrix_readers(tree):
    """The top-level functions and classes (by name, "<module>" outside them)
    that read weights_matrix."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body if _attribute_reads(node, "weights_matrix")
    }


def test_estimator_reads_no_weights_matrix():
    # every entry point of the estimator, the certificates and their LP
    # fallbacks included, asks the set its queries, so it takes any kind of set
    path = Path(robustmse.__file__).parent / "estimator.py"
    assert _weights_matrix_readers(ast.parse(path.read_text())) == set()


def test_the_check_sees_who_reads_the_weights_matrix():
    source = """
W = ms.weights_matrix

def verify_saddle(ms):
    return ms.weights_matrix

def penalized_value(ms):
    return (ms.weights_matrix > 0).all()

class Pool:
    def add(self, ms, k):
        return ms.weights_matrix[k]
"""
    assert _weights_matrix_readers(ast.parse(source)) == {
        "<module>", "verify_saddle", "penalized_value", "Pool",
    }


SET_KINDS = {"MeasureSet", "TreeModel"}


def _set_kind_checks(tree):
    """(line, name) of each MeasureSet or TreeModel named in the class
    argument of an isinstance call."""
    return sorted(
        (node.lineno, getattr(name, "id", getattr(name, "attr", None)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        for name in ast.walk(node.args[-1])
        if getattr(name, "id", getattr(name, "attr", None)) in SET_KINDS
    )


@pytest.mark.parametrize("module", ["estimator", "cli"])
def test_no_branch_on_the_kind_of_set(module):
    path = Path(robustmse.__file__).parent / f"{module}.py"
    assert _set_kind_checks(ast.parse(path.read_text())) == []


def test_the_check_sees_a_branch_on_the_kind_of_set():
    source = """
def solve(ms, tree):
    if isinstance(ms, MeasureSet):
        return 1
    if isinstance(tree, (measures.MeasureSet, gexp.TreeModel)):
        return 2
    return isinstance(ms, Measure)
"""
    assert _set_kind_checks(ast.parse(source)) == [
        (3, "MeasureSet"), (5, "MeasureSet"), (5, "TreeModel"),
    ]


def test_oracle_reads_no_tree_attribute():
    # uniqueness is the set's is_proper() query, whatever the instance kind
    path = Path(robustmse.__file__).parent / "cli.py"
    assert _attribute_reads(ast.parse(path.read_text()), "tree", "cmd_oracle") == []


def test_the_check_sees_a_tree_read():
    source = """
def cmd_oracle(inst):
    ms = inst.measures()
    return inst.tree is not None or ms.is_proper()

def cmd_gexp(inst):
    return inst.tree
"""
    assert _attribute_reads(ast.parse(source), "tree", "cmd_oracle") == [4]


def _methods(tree, cls):
    """The names of the functions defined in the body of the class named cls."""
    return sorted(
        f.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == cls
        for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def test_measure_set_has_no_conditional_means():
    # its envelopes query forms each algebra's table of means and reduces it
    path = Path(robustmse.__file__).parent / "measures.py"
    assert "conditional_means" not in _methods(ast.parse(path.read_text()), "MeasureSet")
    assert not hasattr(MeasureSet, "conditional_means")


def test_the_check_sees_a_method():
    source = """
class MeasureSet(Immutable):
    def envelopes(self, v, algebras):
        return []

    def conditional_means(self, v, c):
        return c

class Other:
    def support(self, v):
        return v
"""
    assert _methods(ast.parse(source), "MeasureSet") == ["conditional_means", "envelopes"]


ENVELOPE_REDUCTIONS = {"conditional_means", "fmax", "fmin"}


def _envelope_reductions(tree):
    """(line, name) of each name, attribute or import named conditional_means,
    fmax or fmin."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(node.lineno, a.name) for a in node.names if a.name in ENVELOPE_REDUCTIONS}
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in ENVELOPE_REDUCTIONS:
            found.add((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", ["sublinear", "stability"])
def test_envelopes_are_reduced_in_the_query_alone(module):
    # the essential sup and inf, the band and the recursivity grid read the
    # set's envelopes; no table of conditional means is reduced outside it
    path = Path(robustmse.__file__).parent / f"{module}.py"
    assert _envelope_reductions(ast.parse(path.read_text())) == []


def test_the_check_sees_a_reduction_outside_the_query():
    source = """
from numpy import fmin

def upper(ms, v, c):
    return np.fmax.reduce(ms.conditional_means(v, c), axis=0)

def lower(a, b):
    return fmin(a, b)
"""
    assert _envelope_reductions(ast.parse(source)) == [
        (2, "fmin"), (5, "conditional_means"), (5, "fmax"), (8, "fmin"),
    ]


def _parameters(tree, function):
    """The parameter names of the top-level function named function, in order."""
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    a = node.args
    params = (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
    return [p.arg for p in params if p is not None]


def test_g_expectation_takes_no_direction():
    # the inf recursion is the tree's lower envelope, and equals -g(-xi)
    path = Path(robustmse.__file__).parent / "gexp.py"
    assert _parameters(ast.parse(path.read_text()), "g_expectation") == ["tm", "xi_leaf"]
    assert list(inspect.signature(g_expectation).parameters) == ["tm", "xi_leaf"]


def test_the_check_sees_a_parameter():
    source = """
def g_expectation(tm, xi_leaf, direction="sup", *rest, pick=max, **more):
    return tm
"""
    assert _parameters(ast.parse(source), "g_expectation") == [
        "tm", "xi_leaf", "direction", "rest", "pick", "more",
    ]
