"""The block solve of a TreeModel (TreeModel.block_solve), which solve_mmse
runs on a tree conditioned at a level below its leaves.

On a rectangular set, min F is the sup recursion, above the level, of each
block's own one-variable minimax. These tests hold the block solve to the
references that share none of its code: the dual ascent on the corner set
(tree_measure_set) and the ellipsoid oracle. They also check its mixture,
its units, its cap and its refusals, and the leaf-vector check of every tree
query.
"""

import math

import numpy as np
import pytest

import robustmse
from robustmse import gexp
from robustmse import (
    ArgumentError,
    PartitionAlgebra,
    RandomVariable,
    TreeModel,
    brute_force_mmse,
    certify,
    solve_mmse,
    tree_measure_set,
)
from robustmse.estimator import SolveTrace
from robustmse.randgen import rng_from_seed
from robustmse.spaces import is_measurable


def drift(depth, seed):
    return TreeModel.drift_bound(depth)


def per_node(depth, seed, fixed=0.0):
    """Sixteenths, q_lo in 1/16..7/16 and q_hi in 8/16..15/16; a node is
    fixed (q_lo == q_hi) with probability `fixed`."""
    rng = rng_from_seed(seed)
    nodes = 2**depth - 1
    lo = rng.integers(1, 8, nodes) / 16
    hi = np.where(rng.random(nodes) < fixed, lo, rng.integers(8, 16, nodes) / 16)
    return TreeModel(depth, lo, hi)


def degenerate(depth, seed):
    """Per-node intervals that are not dyadic, with 40 % of the nodes fixed."""
    rng = rng_from_seed(seed)
    nodes = 2**depth - 1
    lo = rng.uniform(0.05, 0.5, nodes)
    hi = np.where(rng.random(nodes) < 0.4, lo, lo + rng.uniform(0.0, 0.45, nodes))
    return TreeModel(depth, lo, hi)


KINDS = {"drift": drift, "per-node": lambda d, s: per_node(d, s, 0.2), "degenerate": degenerate}


def leaf_values(kind, n, seed):
    """Dyadic sixteenths; ties (equal leaf pairs, and a constant first half,
    so that some blocks are constant); or normal draws."""
    rng = rng_from_seed(seed)
    if kind == "dyadic":
        return rng.integers(-32, 33, n) / 16
    if kind == "tied":
        v = np.repeat(rng.integers(-8, 9, n // 2) / 4, 2)[:n] if n > 1 else np.zeros(n)
        v[: n // 2] = v[0]
        return v
    return rng.normal(size=n) * 3.0


# xi -> xi * s + a: (s, a in units of R)
UNITS = {"xi": (1.0, 0.0), "xi+1e4R": (1.0, 1e4), "xi*2^20": (2.0**20, 0.0),
         "xi*2^-20": (2.0**-20, 0.0)}

CASES = [
    pytest.param(kind, depth, leaves, id=f"{kind}-d{depth}-{leaves}")
    for kind in KINDS for depth in (1, 2, 3, 4) for leaves in ("dyadic", "tied", "normal")
]


def conditional_means(tm, lam, x, c):
    """E_P[x | B] per block under the mixture lam of the tree's corners."""
    charged = np.flatnonzero(lam)
    p = lam[charged] @ tm.rows(charged)
    return c.block_sums(p * x) / c.block_sums(p)


@pytest.mark.parametrize("kind, depth, leaves", CASES)
def test_block_solve_against_the_dual_and_the_oracle(kind, depth, leaves):
    # the references are taken at xi; at the other units they are moved
    # with xi, as eta_hat(xi * s + a) = eta_hat(xi) * s + a and
    # alpha(xi * s + a) = alpha(xi) * s^2. The oracle certifies alpha, to
    # its gap; each f_B grows at least as (eta_B - eta_hat_B)^2 and F at
    # least as the least mass a corner puts on B times f_B, so the oracle's
    # eta_hat is held to sqrt(gap / that mass), about 1e-7 R
    seed = 4600 + 10 * depth + len(kind)
    tm = KINDS[kind](depth, seed)
    ms = tree_measure_set(tm)
    base = leaf_values(leaves, tm.num_leaves, seed)
    R0 = RandomVariable(tm.space, base).unit
    for level in range(depth):
        c = tm.level_partition(level)
        x0 = RandomVariable(tm.space, base)
        dual, oracle = solve_mmse(ms, x0, c), brute_force_mmse(tm, x0, c)
        assert dual.converged and oracle.converged
        least_mass = c.block_sums(ms.weights_matrix).min(axis=0)[c.labels]
        oracle_eta = np.sqrt((oracle.saddle_gap + 1e-12 * R0 * R0) / least_mass)
        for s, a in UNITS.values():
            x = RandomVariable(tm.space, base * s + a * R0)
            R = x.unit
            res = solve_mmse(tm, x, c)
            assert res.converged
            assert res.trace == SolveTrace(additions=res.iterations)
            for ref, eta_tol in ((dual, 1e-9 * R0), (oracle, oracle_eta)):
                want = ref.eta_hat.values * s + a * R0
                assert np.all(np.abs(res.eta_hat.values - want) <= eta_tol * s)
                assert abs(res.alpha - ref.alpha * s * s) <= 1e-9 * R * R
            cert, member, ns = certify(tm, x, c, res)
            assert cert.passed and member and ns.holds
            lam = res.p_hat.lam
            assert len(lam) == len(ms)
            # a measurable xi is its own estimator, with the uniform mixture
            assert np.count_nonzero(lam) <= c.num_blocks + 1 or is_measurable(x, c)
            # E_P_hat[xi - eta_hat | B] = 0, beyond the rounding of eta_hat itself
            eta = res.eta_hat.values[c.first]
            off = conditional_means(tm, lam, x.values - res.eta_hat.values, c)
            assert np.all(np.abs(off) <= 1e-12 * R + np.spacing(np.abs(eta)))


def test_the_path_is_the_sets_answer():
    # a MeasureSet answers block_solve with None: its generators couple its
    # blocks, and solve_mmse runs the dual ascent on it
    tm = per_node(3, 4620)
    ms = tree_measure_set(tm)
    x = RandomVariable(tm.space, leaf_values("normal", 8, 4620))
    c = tm.level_partition(1)
    assert ms.block_solve(x.values, c, None, 10) is None
    eta, alpha, phi, mixture, added = tm.block_solve(x.values, c, None, 10)
    res = solve_mmse(tm, x, c)
    assert res.eta_hat == c.broadcast(eta) and res.alpha == alpha
    assert res.saddle_gap == max(0.0, alpha - phi) and res.iterations == added
    lam = res.p_hat.lam
    assert dict(zip(np.flatnonzero(lam).tolist(), lam[lam > 0.0].tolist())) == pytest.approx(
        mixture, abs=1e-15)


def quadratic_mixture(above, picks):
    """P_hat's weights by corner, each block's corner chosen afresh at every
    cut t: the O(B^2) build that gexp._mixture replaces."""
    cuts = [0.0, *sorted({lam for lam, _, _ in picks if 0.0 < lam < 1.0}), 1.0]
    mixture = {}
    for t, t_next in zip(cuts, cuts[1:]):
        k = above | sum(k1 if t < lam else k2 for lam, k1, k2 in picks)
        mixture[k] = mixture.get(k, 0.0) + (t_next - t)
    return mixture


def test_mixture_is_the_quadratic_build(monkeypatch):
    # the same weights in the same order: block_solve's mixtures at every
    # level of trees of depth 1 to 12, and picks with tied lam, lam 0 and 1,
    # and a block whose two corners are one
    picks = [(0.5, 1, 2), (0.25, 4, 8), (0.5, 16, 32), (0.0, 64, 128), (1.0, 256, 512),
             (0.75, 1024, 1024)]
    calls = [(4096, picks), (0, picks[3:5]), (0, [])]
    mixture = gexp._mixture

    def recorded(above, picks):
        calls.append((above, picks))
        return mixture(above, picks)

    monkeypatch.setattr(gexp, "_mixture", recorded)
    cap = robustmse.estimator.MAX_ADDITIONS
    for depth in range(1, 13):
        for make in (drift, per_node):
            tm = make(depth, 4630 + depth)
            v = leaf_values("normal", tm.num_leaves, 4630 + depth)
            for level in range(depth + 1):
                tm.block_solve(v, tm.level_partition(level), None, cap)
    assert len(calls) == 3 + 2 * sum(range(2, 14))
    for above, picks in calls:
        assert list(mixture(above, picks).items()) == list(quadratic_mixture(above, picks).items())


def test_rows_read_corner_indices_of_any_size():
    # depth 7: 127 free nodes, so the index of support's corner passes 2^63
    tm = drift(7, 0)
    x = RandomVariable(tm.space, leaf_values("normal", tm.num_leaves, 4631))
    top, k, _ = tm.support(x.values, -math.inf)
    assert k.bit_length() > 63
    assert abs(tm.rows([k])[0] @ x.values - top) <= 1e-12 * x.unit


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_rows_refuse_an_index_that_is_no_corner(depth):
    tm = per_node(depth, 4632 + depth, 0.2)
    m = tm.num_generators().bit_length() - 1
    assert tm.rows([0, 2**m - 1]).shape == (2, tm.num_leaves)
    assert tm.rows([]).shape == (0, tm.num_leaves)
    for k in (2**m, -1, 2**70):
        with pytest.raises(ArgumentError, match=rf"corner indices lie in 0..2\^{m} - 1"):
            tm.rows([0, k])
    for k in (1.0, True, "1"):
        with pytest.raises(ArgumentError, match="corner index must be an integer"):
            tm.rows([k])


def test_the_solve_runs_none_of_the_certificates_recursion(monkeypatch):
    # support, envelopes and g_expectation, which the certificates read, run
    # TreeModel._sweep; block_solve runs a recursion of its own (ROADMAP aim 3)
    sweeps, sweep = [], TreeModel._sweep

    def counted(tm, v, pick):
        sweeps.append(pick)
        return sweep(tm, v, pick)

    monkeypatch.setattr(TreeModel, "_sweep", counted)
    for depth in (1, 2, 3, 4):
        for make in KINDS.values():
            tm = make(depth, 4634 + depth)
            x = RandomVariable(tm.space, leaf_values("normal", tm.num_leaves, 4634 + depth))
            for level in range(depth + 1):
                assert solve_mmse(tm, x, tm.level_partition(level)).converged
    assert sweeps == []


def test_start_changes_the_path_not_the_answer():
    # init_weights gives each block's first point, E_{p0}[xi | B]
    tm = drift(3, 0)
    ms = tree_measure_set(tm)
    x = RandomVariable(tm.space, leaf_values("normal", 8, 4621))
    rng = rng_from_seed(4621)
    for level in range(3):
        c = tm.level_partition(level)
        plain = solve_mmse(tm, x, c)
        for init in (rng.dirichlet(np.ones(len(ms))), np.arange(len(ms)) == 5):
            got = solve_mmse(tm, x, c, init_weights=init)
            assert got.converged
            assert np.max(np.abs(got.eta_hat.values - plain.eta_hat.values)) <= 1e-12 * x.unit
            assert got.alpha == pytest.approx(plain.alpha, abs=1e-12 * x.unit**2)


@pytest.mark.usefixtures("fresh_tables")
def test_cap_stops_the_blocks(monkeypatch):
    # the additions of all blocks count against MAX_ADDITIONS; a capped solve
    # reports its gap and the stop warning, never a converged status
    tm = per_node(3, 4622)
    x = RandomVariable(tm.space, leaf_values("normal", 8, 4622))
    c = tm.level_partition(1)
    full = solve_mmse(tm, x, c)
    assert full.iterations >= 2
    for cap in range(full.iterations):
        monkeypatch.setattr(robustmse.estimator, "MAX_ADDITIONS", cap)
        res = solve_mmse(tm, x, c)
        assert res.iterations == cap and not res.converged
        assert res.saddle_gap > 1e-8 * (1.0 + res.alpha)
        assert "stopped at gap" in res.warnings[-1]
        assert res.alpha >= full.alpha - 1e-12 * x.unit**2


def test_constant_blocks_cost_no_addition():
    # xi constant on every block but one: those blocks are their own estimate
    tm = per_node(3, 4623)
    c = tm.level_partition(2)
    v = np.array([1.0, 1.0, -2.0, -2.0, 0.5, 0.5, 3.0, -1.0])
    res = solve_mmse(tm, RandomVariable(tm.space, v), c)
    assert res.converged
    assert res.eta_hat.values[:6].tolist() == v[:6].tolist()
    assert res.iterations <= 1


def test_a_tree_is_solved_at_its_level_partitions_only():
    tm = drift(2, 0)
    x = RandomVariable(tm.space, [1.0, 0.0, 2.0, -1.0])
    c = PartitionAlgebra(tm.space, [[0, 3], [1, 2]])
    with pytest.raises(ArgumentError, match="level partitions"):
        solve_mmse(tm, x, c)


# --- every tree query refuses leaf values of another shape -------------------

QUERIES = {
    "support": lambda tm, v: tm.support(v, -math.inf),
    "ties": lambda tm, v: tm.support(v, 0.0),
    "envelopes": lambda tm, v: tm.envelopes(v, [tm.level_partition(1)]),
    "block_solve": lambda tm, v: tm.block_solve(v, tm.level_partition(1), None, 10),
}


@pytest.mark.parametrize("query", list(QUERIES))
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_query_refuses_a_leaf_vector_of_another_shape(query, depth):
    tm = TreeModel.drift_bound(depth)
    n = tm.num_leaves
    QUERIES[query](tm, np.arange(float(n)))  # the right shape answers
    for shape in ((n - 1,), (n + 1,), (2, n)):
        with pytest.raises(ArgumentError, match=rf"2\^{depth} = {n} leaf values"):
            QUERIES[query](tm, np.arange(float(math.prod(shape))).reshape(shape))

