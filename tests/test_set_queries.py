"""One conformance test of the set queries, which every kind of set passes.

The package reads a set only through the queries of measures.SetQueries,
listed in QUERIES. Each kind of set answers them its own way: a MeasureSet
from its weight matrix, a TreeModel by its recursions, and QueriesOnly (of
tests/test_witness_certificates.py) by asking a MeasureSet, which makes it
the template of a new kind. Here every answer is checked against brute
force over the set's own rows, rows(range(num_generators())), which for a
tree are its corner matrix bit for bit, and every value query refuses
values of another shape. A new kind of set joins by adding a factory to
SETS.
"""

import math

import numpy as np
import pytest
from test_witness_certificates import QueriesOnly

from robustmse import (
    ArgumentError,
    MeasureSet,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    TreeModel,
    conditional_envelopes,
    ess_inf_conditional,
    ess_sup_conditional,
    kernel_interval,
)
from robustmse.randgen import random_instance, random_partition, rng_from_seed


def explicit_set(seed):
    """A proper random set, at its partition and the trivial and discrete ones."""
    ms, _, c = random_instance(rng_from_seed(seed), 8, 4, 8)
    return ms, [c, PartitionAlgebra.trivial(ms.space), PartitionAlgebra.discrete(ms.space)]


def uncharged_set(seed):
    """Generators with zero weights, so that some leave blocks uncharged
    (every point is charged by some generator), at a random two-block
    partition and the discrete one."""
    rng = rng_from_seed(seed)
    n, k = int(rng.integers(4, 7)), int(rng.integers(2, 7))
    rows = rng.integers(1, 9, size=(k, n)) * (rng.random((k, n)) < 0.5)
    rows[np.arange(k), rng.integers(n, size=k)] += 1  # every generator charges a point
    rows[rng.integers(k, size=n), np.arange(n)] += 1  # and every point is charged
    space = SampleSpace.of_size(n)
    ms = MeasureSet.from_matrix(space, rows / rows.sum(axis=1, keepdims=True))
    return ms, [random_partition(rng, space, 2), PartitionAlgebra.discrete(space)]


def queries_only(seed):
    """An explicit set behind QueriesOnly, at the explicit set's algebras."""
    ms, algebras = explicit_set(seed)
    return QueriesOnly(ms), algebras


def tree(make):
    tm = make()
    return tm, [tm.level_partition(level) for level in range(tm.depth + 1)]


def per_node_tree(depth, seed, fixed=0.0):
    """Sixteenths: q_lo in 1/16..7/16 and q_hi in 8/16..15/16, except that a
    node is fixed (q_lo == q_hi) with probability `fixed`."""
    rng = rng_from_seed(seed)
    nodes = 2**depth - 1
    lo = rng.integers(1, 8, nodes) / 16
    hi = np.where(rng.random(nodes) < fixed, lo, rng.integers(8, 16, nodes) / 16)
    return TreeModel(depth, lo, hi)


TREES = [
    pytest.param(lambda d=d: TreeModel.drift_bound(d), id=f"drift-d{d}") for d in (1, 2, 3, 4)
] + [
    pytest.param(lambda d=d: per_node_tree(d, 3910 + d), id=f"per-node-d{d}") for d in (1, 2, 3, 4)
] + [
    pytest.param(lambda: per_node_tree(3, 3919, fixed=0.4), id="per-node-d3-fixed-nodes"),
]

SETS = (
    [pytest.param(lambda s=s: explicit_set(s), id=f"explicit-{s}") for s in range(3901, 3906)]
    + [pytest.param(lambda s=s: uncharged_set(s), id=f"uncharged-{s}") for s in range(3906, 3911)]
    + [pytest.param(lambda make=p.values[0]: tree(make), id=f"tree-{p.id}") for p in TREES]
    + [pytest.param(lambda s=s: queries_only(s), id=f"queries-only-{s}") for s in (3901, 3902)]
)

# the members of measures.SetQueries, each checked below
QUERIES = ("space", "num_generators", "support", "rows", "mean_row", "envelopes", "is_proper",
           "block_solve")


def probes(n, seed):
    """Dyadic values with pairs of equal neighbours (ties between the two
    endpoints of a tree node), a constant (every generator ties), and
    values that are not dyadic."""
    rng = rng_from_seed(seed)
    dyadic = rng.integers(-32, 33, n) / 16
    pairs = np.repeat(dyadic[::2], 2)[:n]
    return [dyadic, pairs, np.full(n, 0.75), rng.normal(size=n) * 3.0, rng.normal(size=n) + 1e3]


def brute_envelopes(rows, v, c):
    """Per block of c, the min and max conditional mean of v over the rows
    that charge the block."""
    lo, hi = [], []
    for block in c.blocks:
        idx = list(block)
        mass = rows[:, idx].sum(axis=1)
        means = rows[mass > 0][:, idx] @ v[idx] / mass[mass > 0]
        lo.append(means.min())
        hi.append(means.max())
    return np.array(lo), np.array(hi)


@pytest.mark.parametrize("make_set", SETS)
def test_set_answers_its_queries_as_brute_force_over_its_rows(make_set):
    s, algebras = make_set()
    K = s.num_generators()
    rows = s.rows(np.arange(K))
    assert rows.shape == (K, s.space.n)
    for ks in (tuple(range(K)), list(range(K))[::-1], [K - 1]):  # any sequence of indices
        assert s.rows(ks).tobytes() == rows[list(ks)].tobytes()
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert s.mean_row() == pytest.approx(rows.mean(axis=0), abs=1e-15)
    for v in probes(s.space.n, K):
        top = rows @ v
        slack = 1e-12 * np.abs(v).max()  # the rounding of one expectation, with room
        value, k, _ = s.support(v, -math.inf)
        assert value == pytest.approx(top.max(), abs=slack)
        near = np.flatnonzero(top >= top.max() - slack)
        if len(near) == 1:
            assert k == near[0]
        else:
            assert k in near
        # the least E_g[v], which ns_condition's guard reads this way
        assert -s.support(-v, -math.inf)[0] == pytest.approx(top.min(), abs=slack)
        for tie_tol in (-math.inf, 0.0, 1e-9 * np.abs(v).max(), 1.0 / 16):
            high, index, ties = s.support(v, tie_tol)
            assert (high, index) == (value, k)  # the tie_tol moves only the ties
            assert list(ties) == sorted(set(ties))
            inner = set(np.flatnonzero(top >= top.max() - tie_tol + slack).tolist())
            outer = set(np.flatnonzero(top >= top.max() - tie_tol - slack).tolist())
            assert inner <= set(ties) <= outer
            if tie_tol == -math.inf:
                assert ties == ()
        envelopes = s.envelopes(v, algebras)
        assert len(envelopes) == len(algebras)
        for c, (lower, upper) in zip(algebras, envelopes):
            want_lower, want_upper = brute_envelopes(rows, v, c)
            assert lower == pytest.approx(want_lower, abs=slack)
            assert upper == pytest.approx(want_upper, abs=slack)


@pytest.mark.parametrize("make_set", SETS)
def test_envelope_readings_are_brute_force_over_its_rows(make_set):
    # the essential sup and inf, the envelope pair and the kernel band all
    # read the set's envelopes query, so they take either kind of set
    s, algebras = make_set()
    rows = s.rows(np.arange(s.num_generators()))
    for v in probes(s.space.n, 7):
        x = RandomVariable(s.space, v)
        slack = 1e-12 * np.abs(v).max()
        for c in algebras:
            want_lower, want_upper = (c.broadcast(w).values for w in brute_envelopes(rows, v, c))
            inf, sup = ess_inf_conditional(s, x, c), ess_sup_conditional(s, x, c)
            assert inf.values == pytest.approx(want_lower, abs=slack)
            assert sup.values == pytest.approx(want_upper, abs=slack)
            assert conditional_envelopes(s, x, c) == (inf, sup)
            assert tuple(kernel_interval(s, x, c)) == (inf, sup)


@pytest.mark.parametrize("make_set", [p for p in SETS if not p.id.startswith("tree-")])
def test_envelopes_of_a_stack_are_those_of_each_row(make_set):
    s, algebras = make_set()
    n = s.space.n
    stack = np.array(probes(n, 11))
    single = [s.envelopes(v, algebras) for v in stack]
    for shape in ((len(stack), n), (len(stack), 1, n)):
        stacked = s.envelopes(stack.reshape(shape), algebras)
        for c, (lowers, uppers) in zip(algebras, stacked):
            assert lowers.shape == uppers.shape == (*shape[:-1], c.num_blocks)
        for i, envelopes in enumerate(single):
            for (lower, upper), (lowers, uppers) in zip(envelopes, stacked):
                assert lowers.reshape(len(stack), -1)[i].tobytes() == lower.tobytes()
                assert uppers.reshape(len(stack), -1)[i].tobytes() == upper.tobytes()


@pytest.mark.parametrize("make_set", SETS)
def test_set_answers_block_solve_as_brute_force_over_its_rows(make_set):
    # a tree solves at each level partition block by block, and its answer
    # holds over its own rows: alpha is the largest E_g[(v - eta)^2], and the
    # mixture, on at most one generator more than blocks, has conditional
    # means eta and phi as its blocks' variance. A set whose generators
    # couple its blocks answers None
    s, algebras = make_set()
    rows = s.rows(np.arange(s.num_generators()))
    for v in probes(s.space.n, 13):
        R = RandomVariable(s.space, v).unit
        for c in algebras:
            got = s.block_solve(v, c, None, 10_000)
            if not isinstance(s, TreeModel):
                assert got is None
                continue
            eta, alpha, phi, mixture, _ = got
            d = v - np.asarray(eta)[c.labels]
            assert alpha == pytest.approx(np.max(rows @ (d * d)), abs=1e-12 * R * R)
            assert len(mixture) <= c.num_blocks + 1
            lam = np.zeros(len(rows))
            lam[list(mixture)] = list(mixture.values())
            assert lam.sum() == pytest.approx(1.0, abs=1e-15)
            p = lam @ rows
            off = c.block_sums(p * d) / c.block_sums(p)
            assert np.all(np.abs(off) <= 1e-12 * R + np.spacing(np.abs(eta)))
            assert phi == pytest.approx(p @ (d * d), abs=1e-12 * R * R)


@pytest.mark.parametrize("make_set", SETS)
def test_value_queries_refuse_values_of_another_shape(make_set):
    # support takes one vector (n,), envelopes a vector or, on a set that
    # serves one, a stack (..., n); anything else is named
    s, algebras = make_set()
    n = s.space.n
    for query in (lambda v: s.support(v, -math.inf), lambda v: s.support(v, 0.0)):
        query(np.arange(float(n)))  # the right shape answers
        for shape in ((n - 1,), (n + 1,), (2, n)):
            with pytest.raises(ArgumentError, match=rf"expected .*\b{n}\b.*got shape"):
                query(np.arange(float(math.prod(shape))).reshape(shape))
    for shape in ((n + 1,), ()):
        with pytest.raises(ArgumentError, match=rf"expected .*\b{n}\b.*got shape"):
            s.envelopes(np.ones(shape), algebras)


@pytest.mark.parametrize("make_set", SETS)
def test_rows_refuse_an_index_that_is_no_generator(make_set):
    # an index outside 0..K - 1 is not read from the end of the list nor past
    # it, and one that is not an integer is not read as one (1.0, True and
    # "1" are not row 1), in a list or in an integer array
    s, _ = make_set()
    K, n = s.num_generators(), s.space.n
    assert s.rows([]).shape == (0, n)
    assert s.rows(np.array([K - 1, 0])).shape == (2, n)
    for ks in ([0, -1], [K], [0, 2**70], np.array([-1]), np.array([K]), np.array([K], np.uint64)):
        with pytest.raises(ArgumentError, match="indices lie in 0"):
            s.rows(ks)
    for k in (1.0, True, "1", np.float64(0.0)):
        with pytest.raises(ArgumentError, match="index must be an integer"):
            s.rows([k])


@pytest.mark.parametrize("make_set", SETS)
def test_set_answers_every_query(make_set):
    s, _ = make_set()
    assert [q for q in QUERIES if not hasattr(s, q)] == []
    assert s.space.n == len(s.mean_row())


def brute_is_proper(rows):
    """Every generator charges every point that some generator charges."""
    K, n = rows.shape
    charged = [i for i in range(n) if any(rows[k, i] > 0.0 for k in range(K))]
    return all(rows[k, i] > 0.0 for k in range(K) for i in charged)


@pytest.mark.parametrize("make_set", SETS)
def test_set_answers_is_proper_as_brute_force_over_its_rows(make_set):
    s, _ = make_set()
    assert s.is_proper() is brute_is_proper(s.rows(np.arange(s.num_generators())))


def test_the_sets_hold_both_verdicts():
    verdicts = {p.values[0]()[0].is_proper() for p in SETS}
    assert verdicts == {True, False}


# at depth 1 every partition of the two leaves is a level partition
@pytest.mark.parametrize("make_tree", [p for p in TREES if not p.id.endswith("-d1")])
def test_tree_refuses_envelopes_off_its_level_partitions(make_tree):
    tm = make_tree()
    n = tm.num_leaves
    v = np.arange(n, dtype=float)
    others = [
        [[0], range(1, n)],  # two blocks, not the first move's
        [[0, n - 1], range(1, n - 1)],  # two blocks, not runs
        [[0], [1], range(2, n)],  # three blocks
    ]
    for blocks in others:
        c = PartitionAlgebra(tm.space, blocks)
        with pytest.raises(ArgumentError, match="level partitions"):
            tm.envelopes(v, [tm.level_partition(0), c])
        x = RandomVariable(tm.space, v)
        for reading in (ess_sup_conditional, ess_inf_conditional, conditional_envelopes,
                        kernel_interval):
            with pytest.raises(ArgumentError, match="level partitions"):
                reading(tm, x, c)


@pytest.mark.parametrize("make_tree", TREES)
def test_tree_takes_a_level_partition_built_apart(make_tree, monkeypatch):
    # the cached level partition that every command passes is recognized by
    # identity; an equal partition built apart passes the comparison of its
    # labels, with the same answers
    tm = make_tree()
    n = tm.num_leaves
    v = np.arange(n, dtype=float)
    for level in range(tm.depth + 1):
        cached, size = tm.level_partition(level), 2 ** (tm.depth - level)
        apart = PartitionAlgebra(tm.space, [range(b, b + size) for b in range(0, n, size)])
        assert apart is not cached and apart == cached
        envelopes = [[a.tobytes() for a in tm.envelopes(v, [c])[0]] for c in (apart, cached)]
        assert envelopes[0] == envelopes[1]
        assert tm.block_solve(v, apart, None, 10) == tm.block_solve(v, cached, None, 10)
        with monkeypatch.context() as patch:
            def compare(*args):
                raise AssertionError("labels compared")

            patch.setattr(np, "array_equal", compare)
            tm.envelopes(v, [cached])
            with pytest.raises(AssertionError, match="labels compared"):
                tm.envelopes(v, [apart])
