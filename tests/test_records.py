"""The package's records and value types, built without dataclasses.

Importing the package and its command line loads no `dataclasses` module, and
each of the 26 types keeps its immutability, equality and hashing: records
(NamedTuples) and value types (through spaces.Immutable) compare and hash
by their fields, a GExpResult and an LpResult by identity.
"""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustmse
from robustmse import (
    Filtration,
    Measure,
    MeasureSet,
    MixtureWeights,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    SolveTrace,
    TreeModel,
    axiom_suite,
    compare_gexp_mmse,
    g_expectation,
    is_stable,
    kernel_interval,
    minimax_gap,
    ns_condition,
    optimality_ineq,
    paste,
    recursivity_check,
    solve_mmse,
    verify_saddle,
)
from robustmse.instances import parse_instance
from robustmse.simplexlp import solve_lp
from robustmse.stability import TcCounterexample
from robustmse.sublinear import AxiomViolation


def test_import_loads_no_dataclasses():
    # numpy does not import dataclasses, so its presence would be the package's
    src = os.path.dirname(os.path.dirname(robustmse.__file__))
    code = "import robustmse, robustmse.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]


def build():
    """One instance of each of the 26 types, keyed by type name; every call
    builds new objects from the same data."""
    space = SampleSpace(("uu", "ud", "du", "dd"))
    g0, g1 = Measure(space, [0.4, 0.1, 0.2, 0.3]), Measure(space, [0.1, 0.4, 0.3, 0.2])
    ms = MeasureSet([g0, g1])
    xi = RandomVariable(space, [1.0, -2.0, 0.5, 3.0])
    halves = PartitionAlgebra(space, [(0, 1), (2, 3)])
    f = Filtration([PartitionAlgebra.trivial(space), halves, PartitionAlgebra.discrete(space)])
    tree = TreeModel(2, 0.25, 0.75)
    res = solve_mmse(ms, xi, halves)
    opt = optimality_ineq(ms, xi, halves, res.eta_hat, [res.eta_hat])
    objs = [
        space, xi, halves, f, g0, ms, MixtureWeights([0.5, 0.5]), tree,
        SolveTrace(), res, verify_saddle(ms, xi, halves, res),
        ns_condition(ms, xi, halves, res.eta_hat), opt.entries[0], opt,
        minimax_gap(ms, xi, halves), g_expectation(tree, xi.values),
        compare_gexp_mmse(tree, xi.values, 1),
        parse_instance({"omega": list(space.labels), "generators": ms.weights_matrix.tolist(),
                        "xi": xi.values.tolist(), "partition": [[0, 1], [2, 3]]}),
        solve_lp(np.ones(2), np.ones((1, 2)), np.ones(1)), paste(g0, g1, f, 1),
        is_stable(ms, f), kernel_interval(ms, xi, halves),
        recursivity_check(ms, f, xi, 0, 1),
        TcCounterexample(ms, xi, f, res.eta_hat, res.eta_hat, res.eta_hat, 0.0, 0),
        AxiomViolation("monotonicity", "samples (0, 1)", 1.0, 0.5),
        axiom_suite(ms, [xi]),
    ]
    return {type(o).__name__: o for o in objs}


NAMES = sorted(build())
# a GexpCompareReport holds a GExpResult
BY_IDENTITY = {"GExpResult", "GexpCompareReport", "LpResult"}
UNHASHABLE = {"Instance"}


def test_every_type_built():
    assert len(NAMES) == 26


@pytest.mark.parametrize("name", NAMES)
def test_assignment_refused(name):
    obj = build()[name]
    first = next(iter(getattr(obj, "_fields", None) or type(obj).__annotations__))
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_value_type_repr_leaves_arrays_out():
    space = SampleSpace(("a", "b"))
    assert repr(RandomVariable(space, [1.0, 2.0])) == (
        "RandomVariable(space=SampleSpace(labels=('a', 'b')), bound=2.0)"
    )
    assert repr(TreeModel(1, 0.25, 0.75)) == "TreeModel(depth=1, dt=0.25)"


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hashing(name):
    a, b = build()[name], build()[name]
    assert a == a
    assert (a == b) is (name not in BY_IDENTITY)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif name not in BY_IDENTITY:
        assert hash(a) == hash(b)


def _flip_zeros(a):
    """a with the sign of every zero entry flipped: equal to a, in other bytes."""
    a = np.array(a, dtype=float)
    return np.where(a == 0.0, -a, a)


def value_types(n, values, counts, labels, q_lo, flip):
    """One object of each of the eight value types, keyed by type name, built
    from drawn data; flip applies to every float array given to a constructor."""
    space = SampleSpace.of_size(n)
    rows = flip(np.array(counts, dtype=float) / np.sum(counts, axis=1, keepdims=True))
    labels = np.array(labels)
    c = PartitionAlgebra(space, [np.flatnonzero(labels == j) for j in sorted(set(labels))][::-1])
    return {
        "SampleSpace": space,
        "RandomVariable": RandomVariable(space, flip(values)),
        "PartitionAlgebra": c,
        "Filtration": Filtration([PartitionAlgebra.trivial(space), c]),
        "Measure": Measure(space, rows[0]),
        "MeasureSet": MeasureSet.from_matrix(space, rows),
        "MixtureWeights": MixtureWeights(rows[-1]),
        "TreeModel": TreeModel(2, flip(q_lo), np.maximum(q_lo, 0.5)),
    }


@st.composite
def value_type_data(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    points = dict(min_size=n, max_size=n)
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0]), **points))
    row = st.lists(st.integers(min_value=0, max_value=2), **points).filter(any)
    counts = draw(st.lists(row, min_size=1, max_size=3))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), **points))
    q_lo = draw(st.lists(st.sampled_from([0.25, 0.5]), min_size=3, max_size=3))
    return n, values, counts, labels, q_lo


VALUE_TYPES = sorted(value_types(1, [0.0], [[1]], [0], [0.25] * 3, _flip_zeros))


@pytest.mark.parametrize("name", VALUE_TYPES)
@settings(max_examples=60, deadline=None)
@given(data=value_type_data())
def test_equal_values_hash_equal(name, data):
    # the second object has every zero of the first with its sign flipped
    a = value_types(*data, flip=lambda x: np.array(x, dtype=float))[name]
    b = value_types(*data, flip=_flip_zeros)[name]
    assert a is not b
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
        assert twin == a and hash(twin) == hash(a)
        assert not [arr for arr in _arrays(twin) if arr.flags.writeable]


def _arrays(obj):
    """Every array a value object holds, through its value-type, tuple and list
    attributes, cached ones included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _arrays(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from _arrays(v)


def test_a_copied_array_refuses_writes():
    xi = RandomVariable(SampleSpace.of_size(2), [1.0, 2.0])
    for twin in (pickle.loads(pickle.dumps(xi)), copy.deepcopy(xi), copy.copy(xi)):
        with pytest.raises(ValueError):
            twin.values[0] = 9.0
        assert twin == xi


def _fill_caches(obj):
    """Ask obj the queries that build its cached attributes."""
    algebras = obj.levels if isinstance(obj, Filtration) else [obj]
    for c in algebras:
        if isinstance(c, PartitionAlgebra):
            c.block_sums(np.ones(c.space.n))
    if isinstance(obj, RandomVariable):
        obj.unit
    if isinstance(obj, MeasureSet):
        obj.generators, obj.support(np.ones(obj.space.n), 0.5)
    if isinstance(obj, TreeModel):
        v = np.arange(obj.num_leaves, dtype=float)
        obj.support(v, 0.5), obj.space


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_cached_arrays_are_read_only_and_copies_rebuild_them(name):
    obj = build()[name]
    _fill_caches(obj)
    assert not [arr for arr in _arrays(obj) if arr.flags.writeable]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        # a copy carries the fields only, and builds its caches read-only
        assert list(vars(twin)) == list(type(obj).__annotations__)
        _fill_caches(twin)
        assert not [arr for arr in _arrays(twin) if arr.flags.writeable]
        assert twin == obj
