import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from robustmse import (
    ArgumentError,
    GuardRefusalError,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    TreeModel,
    axiom_suite,
    brute_force_mmse,
    certify,
    compare_gexp_mmse,
    conditional_envelopes,
    g_expectation,
    holder_bound,
    minimax_gap,
    mix,
    optimality_ineq,
    penalized_value,
    rho,
    solve_mmse,
    tree_measure_set,
)
from robustmse import gexp
from robustmse.randgen import rng_from_seed, random_variable
from robustmse.spaces import VALUE_TOL


def lower_recursion(tm, v):
    """The inf recursion's value at every node, level by level: the tree's
    lower envelope of v at each of its level partitions."""
    levels = [tm.level_partition(level) for level in range(tm.depth + 1)]
    return np.concatenate([lower for lower, _ in tm.envelopes(v, levels)])


def reference_corners(tm):
    """Corner matrix built one corner at a time, in itertools.product order.

    Each corner row is renormalized the way a Measure is: divided by its sum
    unless that sum is exactly 1.
    """
    choices = [
        (tm.q_lo[v],) if tm.q_lo[v] == tm.q_hi[v] else (tm.q_lo[v], tm.q_hi[v])
        for v in range(tm.num_internal)
    ]
    rows = []
    for corner in itertools.product(*choices):
        probs = np.ones(1)
        for d in range(tm.depth):
            q = np.array(corner[2 ** d - 1 : 2 ** (d + 1) - 1])
            nxt = np.empty(2 ** (d + 1))
            nxt[0::2] = probs * q
            nxt[1::2] = probs * (1.0 - q)
            probs = nxt
        total = probs.sum()
        rows.append(probs / total if total != 1.0 else probs)
    return np.stack(rows)


def per_node_tree(depth, seed, degenerate_frac=0.0):
    """Seeded per-node intervals; about degenerate_frac of the nodes get q_lo == q_hi."""
    rng = rng_from_seed(seed)
    nodes = 2 ** depth - 1
    q_lo = rng.uniform(0.05, 0.5, nodes)
    q_hi = q_lo + rng.uniform(0.01, 0.45, nodes)
    q_hi = np.where(rng.random(nodes) < degenerate_frac, q_lo, q_hi)
    return TreeModel(depth, q_lo, q_hi, dt=0.3)


def dyadic_tree(depth, seed, degenerate_frac=0.0):
    """Per-node intervals of sixteenths, as the benchmark draws them."""
    rng = rng_from_seed(seed)
    nodes = 2 ** depth - 1
    lo = rng.integers(2, 8, size=nodes)
    hi = np.where(rng.random(nodes) < degenerate_frac, lo, lo + rng.integers(1, 8, size=nodes))
    return TreeModel(depth, lo / 16, hi / 16)


def dyadic_leaves(rng, tm):
    """Sixteenths in [-2, 2], with the two leaves below some parents equal, so
    that both endpoints tie there and several corners attain the maximum."""
    v = rng.integers(-32, 33, size=tm.num_leaves) / 16
    pairs = rng.random(tm.num_leaves // 2) < 0.4
    v[1::2] = np.where(pairs, v[0::2], v[1::2])
    return v


CORNER_TREES = [
    pytest.param(lambda d=d, dt=dt: TreeModel.drift_bound(d, dt), id=f"drift-d{d}-dt{dt}")
    for d in (1, 2, 3, 4)
    for dt in (0.25, 0.3)
] + [
    pytest.param(lambda d=d: per_node_tree(d, 60 + d), id=f"per-node-d{d}")
    for d in (1, 2, 3, 4)
] + [
    pytest.param(lambda d=d: per_node_tree(d, 70 + d, 0.4), id=f"degenerate-d{d}")
    for d in (2, 3, 4)
]
# the oracle's trees add dyadic ones, on which every expectation is exact
ORACLE_TREES = CORNER_TREES + [
    pytest.param(lambda d=d: dyadic_tree(d, 80 + d, 0.2), id=f"dyadic-d{d}")
    for d in (1, 2, 3, 4)
]


class TestTreeModel:
    def test_depth_positive(self):
        with pytest.raises(ArgumentError):
            TreeModel(0, 0.25, 0.75)

    @pytest.mark.parametrize("depth", [2.7, 2.0, True, "2"])
    def test_depth_is_an_integer_not_truncated(self, depth):
        # 2.7 used to build depth 2, and True depth 1
        with pytest.raises(ArgumentError, match="tree depth must be an integer"):
            TreeModel(depth, 0.25, 0.75)

    def test_depth_may_be_a_numpy_integer(self):
        tm = TreeModel(np.int64(2), 0.25, 0.75)
        assert type(tm.depth) is int and tm == TreeModel(2, 0.25, 0.75)

    @pytest.mark.parametrize(
        "q_lo, q_hi, name",
        [
            ([0.2, 0.3], 0.7, "q_lo"), ("a", 0.7, "q_lo"), ([0.2, "a", 0.2], 0.7, "q_lo"),
            (0.2, [0.7] * 4, "q_hi"), (0.2, {"q": 0.7}, "q_hi"), (0.2, 10**400, "q_hi"),
        ],
        ids=["two-of-three", "a-string", "a-string-entry", "four-of-three", "an-object", "huge"],
    )
    def test_bounds_are_one_number_or_one_per_node(self, q_lo, q_hi, name):
        # a library error that names the count, not numpy's bare ValueError
        with pytest.raises(ArgumentError, match=rf"^{name} must be one number or 3 numbers"):
            TreeModel(2, q_lo, q_hi)

    def test_interval_open(self):
        with pytest.raises(ArgumentError):
            TreeModel(1, 0.0, 0.75)
        with pytest.raises(ArgumentError):
            TreeModel(1, 0.25, 1.0)
        with pytest.raises(ArgumentError):
            TreeModel(1, 0.75, 0.25)
        for q_lo, q_hi in [
            (math.nan, 0.75), (0.25, math.nan),
            ([math.nan, 0.25, 0.25], 0.75), (0.25, [0.75, math.nan, 0.75]),
        ]:
            with pytest.raises(ArgumentError):
                TreeModel(2, q_lo, q_hi)

    @pytest.mark.parametrize("dt", [0.0, -0.25, math.inf, math.nan])
    def test_dt_positive_and_finite(self, dt):
        with pytest.raises(ArgumentError):
            TreeModel(1, 0.25, 0.75, dt)

    def test_drift_bound_default(self):
        tm = TreeModel.drift_bound(1)
        assert tm.dt == 0.25
        assert list(tm.q_lo) == [0.25]
        assert list(tm.q_hi) == [0.75]

    def test_drift_bound_needs_fractional_dt(self):
        with pytest.raises(ArgumentError):
            TreeModel.drift_bound(1, dt=1.0)

    def test_leaf_labels(self):
        tm = TreeModel.drift_bound(2)
        assert tm.space.labels == ("uu", "ud", "du", "dd")

    def test_level_partitions(self):
        tm = TreeModel.drift_bound(2)
        assert tm.level_partition(0).blocks == ((0, 1, 2, 3),)
        assert tm.level_partition(1).blocks == ((0, 1), (2, 3))
        assert tm.level_partition(2).blocks == ((0,), (1,), (2,), (3,))
        # at every depth and level: the leaves grouped by their first `level`
        # moves, the top bits of the leaf index
        for depth in range(1, 6):
            tm = TreeModel.drift_bound(depth)
            for level in range(depth + 1):
                groups = {}
                for leaf in range(2 ** depth):
                    groups.setdefault(leaf >> (depth - level), []).append(leaf)
                expected = tuple(tuple(g) for g in groups.values())
                assert tm.level_partition(level).blocks == expected, (depth, level)

    def test_depth_fixed_structure_is_shared(self):
        # the leaf space and the level partitions depend on the depth alone:
        # trees of one depth share each as one object, equal to a fresh build
        for depth in (1, 2, 3, 4):
            a, b = TreeModel.drift_bound(depth), per_node_tree(depth, 90 + depth)
            assert a.space is b.space
            paths = [format(j, f"0{depth}b") for j in range(2**depth)]
            labels = ["".join("ud"[int(bit)] for bit in path) for path in paths]
            assert a.space == SampleSpace(labels)
            for level in range(depth + 1):
                part = a.level_partition(level)
                assert part is b.level_partition(level)
                size = 2 ** (depth - level)
                runs = [range(j, j + size) for j in range(0, 2**depth, size)]
                fresh = PartitionAlgebra(SampleSpace(labels), runs)
                assert part == fresh and part.blocks == fresh.blocks
                assert np.array_equal(part.labels, fresh.labels)
                assert np.array_equal(part.first, fresh.first)

    def test_shared_structure_survives_copies(self):
        tm = per_node_tree(3, 93)
        for twin in (pickle.loads(pickle.dumps(tm)), copy.deepcopy(tm)):
            assert twin == tm and twin is not tm
            assert twin.space is tm.space
            assert all(twin.level_partition(lv) is tm.level_partition(lv) for lv in range(4))
            v = np.arange(tm.num_leaves, dtype=float)
            assert twin.support(v, 0.5) == tm.support(v, 0.5)


class TestTreeMeasureSet:
    def test_depth_one_corners(self):
        ms = tree_measure_set(TreeModel.drift_bound(1))
        assert len(ms) == 2
        assert list(ms.generators[0].weights) == [0.25, 0.75]
        assert list(ms.generators[1].weights) == [0.75, 0.25]

    def test_depth_two_corner_count(self):
        ms = tree_measure_set(TreeModel.drift_bound(2))
        assert len(ms) == 8

    def test_degenerate_interval_single_generator(self):
        ms = tree_measure_set(TreeModel(2, 0.5, 0.5))
        assert len(ms) == 1
        assert list(ms.generators[0].weights) == [0.25] * 4

    def test_depth_guard(self):
        with pytest.raises(GuardRefusalError):
            tree_measure_set(TreeModel(7, 0.25, 0.75))

    @pytest.mark.parametrize("make_tree", CORNER_TREES)
    def test_matches_reference_bit_for_bit(self, make_tree):
        tm = make_tree()
        got = tree_measure_set(tm).weights_matrix
        want = reference_corners(tm)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_full_depth_five_refused(self):
        # 2^31 corners x 32 leaves: refused before anything is allocated
        with pytest.raises(GuardRefusalError):
            tree_measure_set(TreeModel.drift_bound(5))

    def test_refusal_names_the_count_as_a_power_of_two(self):
        # 2^16383 corners has more decimal digits than int's string
        # conversion allows: the refusal must not fail in its own message
        with pytest.raises(GuardRefusalError, match=r"^2\^16383 corners x 16384 leaves exceed"):
            TreeModel.drift_bound(14).num_generators()

    def test_depth_five_with_fifteen_free_nodes(self):
        rng = rng_from_seed(47)
        q_lo = np.full(31, 0.5)
        q_hi = np.full(31, 0.5)
        q_lo[:15], q_hi[:15] = 0.25, 0.75  # levels 0-3 free, level 4 degenerate
        q_lo[15:] = q_hi[15:] = rng.integers(2, 15, size=16) / 16
        tm = TreeModel(5, q_lo, q_hi)
        ms = tree_measure_set(tm)
        assert len(ms) == 2 ** 15
        for _ in range(3):
            xi = random_variable(rng, ms.space)
            root = g_expectation(tm, xi.values).root_value
            assert rho(ms, xi) == pytest.approx(root, abs=1e-10)

    def test_guard_counts_matrix_entries(self, monkeypatch):
        tm = TreeModel.drift_bound(2)  # 8 corners x 4 leaves
        monkeypatch.setattr(gexp, "MAX_CORNER_ENTRIES", 32)
        assert len(tree_measure_set(tm)) == 8
        monkeypatch.setattr(gexp, "MAX_CORNER_ENTRIES", 31)
        with pytest.raises(GuardRefusalError):
            tree_measure_set(tm)


class TestGExpectation:
    def test_root_matches_worst_case_expectation(self):
        tm = TreeModel.drift_bound(1)
        res = g_expectation(tm, [2.0, 8.0])
        assert res.root_value == pytest.approx(6.5, abs=1e-12)

    def test_constant_leaves(self):
        tm = TreeModel.drift_bound(3)
        res = g_expectation(tm, [4.0] * 8)
        assert np.max(np.abs(res.y - 4.0)) == 0.0
        assert np.max(np.abs(res.z)) == 0.0

    def test_monotone_leaves_select_upper_corner(self):
        tm = TreeModel.drift_bound(2)
        xi = np.array([8.0, 4.0, 2.0, 1.0])  # up-leaf always larger
        res = g_expectation(tm, xi)
        # enumerated recursion with q_hi everywhere
        hi = tm.q_hi[0]
        level1 = [hi * 8 + (1 - hi) * 4, hi * 2 + (1 - hi) * 1]
        assert res.level_values(1) == pytest.approx(level1)
        assert res.root_value == pytest.approx(hi * level1[0] + (1 - hi) * level1[1])

    def test_z_formula(self):
        tm = TreeModel.drift_bound(1, dt=0.25)
        res = g_expectation(tm, [3.0, 1.0])
        assert res.z[0] == pytest.approx((3.0 - 1.0) / (2 * math.sqrt(0.25)))

    def test_one_step_endpoint_invariant(self):
        tm = TreeModel.drift_bound(3)
        rng = rng_from_seed(41)
        xi = rng.integers(-32, 33, size=8) / 16
        res = g_expectation(tm, xi)
        for d in range(2, -1, -1):
            for p in range(2 ** d):
                node = 2 ** d - 1 + p
                up = res.y[2 ** (d + 1) - 1 + 2 * p]
                dn = res.y[2 ** (d + 1) - 1 + 2 * p + 1]
                lo, hi = tm.q_lo[node], tm.q_hi[node]
                expect = max(lo * up + (1 - lo) * dn, hi * up + (1 - hi) * dn)
                assert res.y[node] == pytest.approx(expect, abs=1e-12)

    def test_representation_identity(self):
        rng = rng_from_seed(42)
        for depth in (1, 2, 3):
            tm = TreeModel.drift_bound(depth)
            ms = tree_measure_set(tm)
            for _ in range(5):
                xi = random_variable(rng, ms.space)
                res = g_expectation(tm, xi.values)
                assert abs(res.root_value - rho(ms, xi)) < 1e-10

    def test_recursion_is_time_consistent(self):
        tm = TreeModel.drift_bound(3)
        rng = rng_from_seed(43)
        xi = rng.integers(-32, 33, size=8) / 16
        res = g_expectation(tm, xi)
        # re-running the recursion from the level-2 values reproduces level 1
        sub = TreeModel(2, tm.q_lo[:3], tm.q_hi[:3], tm.dt)
        again = g_expectation(sub, res.level_values(2))
        assert again.level_values(1) == pytest.approx(res.level_values(1), abs=1e-14)
        assert again.root_value == pytest.approx(res.root_value, abs=1e-14)

    def test_negation_flips_to_inf_recursion(self):
        tm = TreeModel.drift_bound(2)
        rng = rng_from_seed(44)
        xi = rng.integers(-32, 33, size=4) / 16
        sup_of_neg = g_expectation(tm, -xi)
        assert sup_of_neg.y == pytest.approx(-lower_recursion(tm, xi), abs=1e-14)

    def test_estimator_negation_is_symmetric(self):
        tm = TreeModel.drift_bound(2)
        ms = tree_measure_set(tm)
        rng = rng_from_seed(45)
        xi = random_variable(rng, ms.space)
        part = tm.level_partition(1)
        plus = solve_mmse(ms, xi, part)
        minus = solve_mmse(ms, -xi, part)
        assert np.max(np.abs(minus.eta_hat.values + plus.eta_hat.values)) < 1e-9

    def test_leaf_count_checked(self):
        with pytest.raises(ArgumentError):
            g_expectation(TreeModel.drift_bound(2), [1.0, 2.0])


class TestCompare:
    def test_depth_one_contrast(self):
        rep = compare_gexp_mmse(TreeModel.drift_bound(1), [2.0, 8.0], 0)
        assert rep.gexp_cond.values[0] == pytest.approx(6.5, abs=1e-9)
        assert rep.mmse.values[0] == pytest.approx(5.0, abs=1e-7)
        assert rep.sup_diff == pytest.approx(1.5, abs=1e-7)

    def test_degenerate_interval_agrees(self):
        rep = compare_gexp_mmse(TreeModel(2, 0.5, 0.5), [1.0, 2.0, 3.0, 4.0], 1)
        assert rep.sup_diff < 1e-9

    def test_top_leaf_indicator_differs(self):
        rep = compare_gexp_mmse(TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0], 1)
        assert rep.sup_diff > 1e-6

    def test_reports_rho_over_its_corner_set(self):
        tm = TreeModel.drift_bound(3)
        xi = np.arange(8.0) % 3
        rep = compare_gexp_mmse(tm, xi, 1)
        ms = tree_measure_set(tm)
        assert rep.rho_root == rho(ms, RandomVariable(ms.space, xi))
        assert rep.rho_root == pytest.approx(g_expectation(tm, xi).root_value, abs=1e-12)

    def test_level_range(self):
        with pytest.raises(ArgumentError):
            compare_gexp_mmse(TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0], 2)


def test_corner_attainment():
    # the maximizer of the worst-case expectation is a corner: its value is
    # reproduced by some corner selection evaluated directly
    tm = TreeModel.drift_bound(2)
    ms = tree_measure_set(tm)
    rng = rng_from_seed(46)
    xi = random_variable(rng, ms.space)
    best = rho(ms, xi)
    corner_values = []
    for corner in itertools.product(*[(tm.q_lo[v], tm.q_hi[v]) for v in range(3)]):
        q0, q1, q2 = corner
        probs = np.array(
            [q0 * q1, q0 * (1 - q1), (1 - q0) * q2, (1 - q0) * (1 - q2)]
        )
        corner_values.append(float(probs @ xi.values))
    assert best == pytest.approx(max(corner_values), abs=1e-12)


def is_exact(tm, v):
    """Dyadic intervals and leaf values: every expectation below is exact."""
    q = np.concatenate([tm.q_lo, tm.q_hi, v]) * 16
    return bool(np.all(q == np.round(q)))


def leaf_samples(tm, seed):
    rng = rng_from_seed(seed)
    out = [dyadic_leaves(rng, tm) for _ in range(3)]
    out.append(np.full(tm.num_leaves, 0.75))  # every corner attains the maximum
    out += [rng.normal(size=tm.num_leaves) * 3.0 for _ in range(3)]
    return out


class TestCornerOracle:
    """TreeModel's queries against the explicit corner matrix."""

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_support_against_corner_matrix(self, make_tree):
        tm = make_tree()
        W = tree_measure_set(tm).weights_matrix
        for v in leaf_samples(tm, 90 + tm.depth):
            vals = W @ v
            M = np.max(np.abs(v))
            value, k, _ = tm.support(v, -math.inf)
            assert value == pytest.approx(vals.max(), abs=1e-12 * M)
            assert vals[k] >= vals.max() - 1e-12 * M
            if is_exact(tm, v):
                # ties go to q_lo: the smallest maximizing corner
                assert value == vals.max()
                assert k == int(np.flatnonzero(vals == vals.max())[0])

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_corner_row_is_bit_identical(self, make_tree):
        tm = make_tree()
        W = tree_measure_set(tm).weights_matrix
        ks = np.arange(len(W))
        if len(W) > 256:
            sample = rng_from_seed(91).integers(0, len(W), 300)
            ks = np.unique(np.concatenate([[0, len(W) - 1], sample]))
        for k in ks:
            assert tm.rows([int(k)])[0].tobytes() == W[k].tobytes()
        assert tm.rows(ks).tobytes() == W[ks].tobytes()

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_rho_against_corner_matrix(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        for v in leaf_samples(tm, 92 + tm.depth):
            x = RandomVariable(ms.space, v)
            M = x.bound
            # wide slacks reach corners whose shortfall sits deep in the tree
            for tol in (1e-9, 1e-3 * M, 0.05 * M, 0.3 * M):
                assert tm.support(v, tol)[2] == ms.support(v, tol)[2]
            # the rho command's query: its value, argmax and ties
            want, got = ms.support(v, VALUE_TOL * x.unit), tm.support(v, VALUE_TOL * x.unit)
            assert got[2] == want[2]
            assert got[0] == pytest.approx(want[0], abs=1e-12 * M)
            assert (rho(ms, x), rho(tm, x)) == (want[0], got[0])
            if is_exact(tm, v):
                assert got == want

    def test_every_corner_ties_on_a_constant(self):
        tm = TreeModel.drift_bound(4)
        x = RandomVariable(tm.space, np.full(16, -1.5))
        assert tm.support(x.values, VALUE_TOL * x.unit) == (-1.5, 0, tuple(range(2 ** 15)))
        assert rho(tm, x) == -1.5

    def test_refused_like_the_corner_set(self):
        # the rho command's query lists ties, which could be all 2^31 corners
        tm = TreeModel.drift_bound(5)
        x = RandomVariable(tm.space, np.zeros(32))
        with pytest.raises(GuardRefusalError, match="dense over the corners"):
            tm.support(x.values, VALUE_TOL * x.unit)
        assert rho(tm, x) == 0.0

    def test_support_without_ties_needs_no_corner_count(self):
        # depth 5 with every node free: 2^31 corners. The maximum and its
        # corner are one sweep; ties could be every corner, so they are refused
        tm = TreeModel.drift_bound(5)
        v = np.arange(32.0)
        value, k, ties = tm.support(v, -math.inf)
        assert value == g_expectation(tm, v).root_value and ties == ()
        assert 0 <= k < 2**31 and tm.rows([k])[0] @ v == pytest.approx(value, rel=1e-12)
        with pytest.raises(GuardRefusalError, match="dense over the corners"):
            tm.support(v, 1e-9)

    def test_value_readers_answer_past_the_guard(self):
        # rho and what reads only its value need the maximum alone, one sup
        # sweep each, on 2^31 corners; minimax_gap's solve writes p_hat with a
        # weight per corner, so it is refused
        tm = TreeModel.drift_bound(5)
        x = RandomVariable(tm.space, np.arange(32.0))
        y = RandomVariable(tm.space, (np.arange(32.0) * 7) % 11 - 5)

        def root(v):
            return g_expectation(tm, v).root_value

        assert rho(tm, x) == root(x.values) == 23.25
        assert holder_bound(tm, x, y, 2.0, 2.0) == (
            root(np.abs(x.values * y.values)), root(x.values**2) ** 0.5 * root(y.values**2) ** 0.5
        )
        report = axiom_suite(tm, [x, y])
        assert report.ok and report.checks == 15
        c = tm.level_partition(3)
        lower, upper = conditional_envelopes(tm, x, c)
        resid = (x - upper).values
        margins = [e.margin for e in optimality_ineq(tm, x, c, upper, [lower, upper]).entries]
        assert margins == [root((x - eta).values * resid) - root(resid * resid) for eta in (lower, upper)]
        assert penalized_value(tm, x, c, upper) == root(resid * resid)
        assert penalized_value(tm, x, c, lower) == math.inf
        with pytest.raises(GuardRefusalError, match="dense over the corners"):
            minimax_gap(tm, x, c)

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_envelopes_against_corner_matrix(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        for v in leaf_samples(tm, 93 + tm.depth):
            x = RandomVariable(ms.space, v)
            levels = [tm.level_partition(level) for level in range(tm.depth + 1)]
            envelopes = [(part, *conditional_envelopes(tm, x, part)) for part in levels]
            assert len(envelopes) == tm.depth + 1
            for level, (part, lower, upper) in enumerate(envelopes):
                assert part == tm.level_partition(level)
                want_lower, want_upper = conditional_envelopes(ms, x, part)
                if is_exact(tm, v):
                    assert np.array_equal(lower.values, want_lower.values)
                    assert np.array_equal(upper.values, want_upper.values)
                else:
                    assert lower.values == pytest.approx(want_lower.values, abs=1e-12 * x.bound)
                    assert upper.values == pytest.approx(want_upper.values, abs=1e-12 * x.bound)


def level_sweep(tm, v, pick):
    """The backward recursion level by level on arrays: y at every node, and
    the values of the q_lo and q_hi endpoints (rows) at every internal node."""
    ys, ends = [np.asarray(v, dtype=float)], []
    for d in range(tm.depth - 1, -1, -1):
        nodes = slice(2 ** d - 1, 2 ** (d + 1) - 1)
        q = np.array([tm.q_lo[nodes], tm.q_hi[nodes]])
        e = q * ys[-1][0::2]
        e += (1.0 - q) * ys[-1][1::2]
        ys.append(pick(e[0], e[1]))
        ends.append(e)
    return np.concatenate(ys[::-1]), np.concatenate(ends[::-1], axis=1)


def breadth_first_ties(tm, v, tie_tol):
    """The ties of support as one array walk over the nodes, every partial corner at once."""
    y, ends = level_sweep(tm, v, np.maximum)
    nodes = tm.num_internal
    shortfall = (y[:nodes] - ends).T
    q = np.array([tm.q_lo, tm.q_hi]).T
    index, total, reach = np.zeros(1, dtype=np.int64), np.zeros(1), np.ones((1, nodes))
    for u, width in enumerate(((tm.q_lo != tm.q_hi) + 1).tolist()):
        grown = (total[:, None] + reach[:, u, None] * shortfall[u, :width]).ravel()
        kept = (grown <= tie_tol).nonzero()[0]
        parent, choice = np.divmod(kept, width)
        index = index[parent] * width + choice
        total, reach = grown[kept], reach[parent]
        if 2 * u + 1 < nodes:
            p = q[u, choice]
            reach[:, 2 * u + 1] = reach[:, u] * p
            reach[:, 2 * u + 2] = reach[:, u] * (1.0 - p)
    return tuple(index.tolist())


class TestNodeWalk:
    """The recursion and the walk of the ties run node by node over Python
    floats; their level-wide array forms above are the reference, bit for bit."""

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_same_bits_as_the_array_forms(self, make_tree):
        tm = make_tree()
        free = tm.q_lo != tm.q_hi
        bits = (1 << (np.cumsum(free[::-1])[::-1] - free)) * free
        zeros = np.zeros(tm.num_leaves)
        # at 1 + 1e-12 noise every corner ties within 1e-9 but not exactly
        near = 1.0 + rng_from_seed(95).normal(size=tm.num_leaves) * 1e-12
        for v in leaf_samples(tm, 94 + tm.depth) + [zeros, -zeros, near]:
            low, _ = level_sweep(tm, v, np.minimum)
            assert lower_recursion(tm, v).tobytes() == low.tobytes()
            y, (a, b) = level_sweep(tm, v, np.maximum)
            assert g_expectation(tm, v).y.tobytes() == y.tobytes()
            value, k, _ = tm.support(v, -math.inf)
            assert (value.hex(), k) == (float(y[0]).hex(), int((b > a) @ bits))
            # the least corner value is minus the largest of -v, bit for bit
            assert (-tm.support(-v, -math.inf)[0]).hex() == float(low[0]).hex()
            for tol in (-math.inf, 0.0, 1e-9, 1e-3, 0.3, 10.0):
                top, index, ties = tm.support(v, tol)
                assert (top.hex(), index) == (value.hex(), k)
                assert ties == breadth_first_ties(tm, v, tol)


class TestTreeOracle:
    """brute_force_mmse on a TreeModel against brute_force_mmse on its corner set."""

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_matches_corner_set_within_the_certified_gaps(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        rng = rng_from_seed(95 + tm.depth)
        for level in range(tm.depth):
            part = tm.level_partition(level)
            for v in (dyadic_leaves(rng, tm), rng.normal(size=tm.num_leaves) * 3.0):
                x = RandomVariable(ms.space, v)
                got, want = brute_force_mmse(tm, x, part), brute_force_mmse(ms, x, part)
                assert got.converged and want.converged
                # each alpha is within its gap above min F; F's rounding differs
                # between the tree's recursion and the corner matrix's products
                slack = 1e-12 * x.unit**2
                assert -want.saddle_gap - slack <= got.alpha - want.alpha <= got.saddle_gap + slack

    def test_refuses_a_partition_that_is_not_a_level(self):
        tm = TreeModel.drift_bound(2)
        x = RandomVariable(tm.space, [1.0, 0.0, 0.0, 2.0])
        with pytest.raises(ArgumentError, match="level partitions"):
            brute_force_mmse(tm, x, PartitionAlgebra(tm.space, [[0, 3], [1, 2]]))


class TestTreePenalized:
    """penalized_value and minimax_gap read a set through its queries, so a
    TreeModel at each level partition answers as its corner set."""

    @pytest.mark.parametrize("make_tree", [p for p in ORACLE_TREES if "-d1" not in p.id])
    def test_matches_corner_set(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        rng = rng_from_seed(98 + tm.depth)
        for level in range(tm.depth + 1):
            part = tm.level_partition(level)
            for v in (dyadic_leaves(rng, tm), rng.normal(size=tm.num_leaves) * 3.0):
                x = RandomVariable(tm.space, v)
                tol = 1e-9 * x.unit**2
                _, upper = conditional_envelopes(ms, x, part)
                below = upper.values - x.unit * (part.labels == 0)  # under the envelope on block 0
                for eta, finite in ((upper, True), (upper + x.unit, True),
                                    (RandomVariable(tm.space, below), False)):
                    want = penalized_value(ms, x, part, eta)
                    assert math.isfinite(want) == finite
                    assert penalized_value(tm, x, part, eta) == pytest.approx(want, abs=tol)
                got, want = minimax_gap(tm, x, part), minimax_gap(ms, x, part)
                upper = conditional_envelopes(tm, x, part)[1]
                assert got.minimax == penalized_value(tm, x, part, upper)  # bit for bit
                assert got.minimax == pytest.approx(want.minimax, abs=tol)
                assert got.maximin == pytest.approx(want.maximin, abs=tol)
                assert got.gap == pytest.approx(want.gap, abs=tol)
                assert got.ess_sup_is_mmse == want.ess_sup_is_mmse


class TestTreeSolve:
    """solve_mmse on a TreeModel against solve_mmse on its corner set."""

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_matches_corner_set(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        rng = rng_from_seed(94 + tm.depth)
        for level in range(tm.depth):
            part = tm.level_partition(level)
            for v in (dyadic_leaves(rng, tm), rng.normal(size=tm.num_leaves) * 3.0):
                x = RandomVariable(ms.space, v)
                M = x.bound
                want = solve_mmse(ms, x, part)
                got = solve_mmse(tm, x, part)
                assert got.converged and want.converged
                assert np.max(np.abs(got.eta_hat.values - want.eta_hat.values)) <= 1e-9 * M
                assert abs(got.alpha - want.alpha) <= 1e-9 * M * M
                # a dense mixture over the corners that reproduces eta_hat
                assert len(got.p_hat) == len(ms)
                assert np.count_nonzero(got.p_hat.lam) <= part.num_blocks + 1
                p = mix(ms, got.p_hat)
                cond = part.block_sums(p.weights * v) / part.block_sums(p.weights)
                assert np.max(np.abs(part.broadcast(cond).values - got.eta_hat.values)) <= 1e-9 * M
                assert np.max(ms.weights_matrix @ (v - got.eta_hat.values) ** 2) == pytest.approx(
                    got.alpha, abs=1e-12 * M * M
                )

    def test_measurable_input(self):
        tm = TreeModel.drift_bound(3)
        part = tm.level_partition(2)
        x = part.broadcast([1.0, -2.0, 0.5, 3.0])
        res = solve_mmse(tm, x, part)
        assert res.eta_hat == x and res.alpha == 0.0
        assert np.array_equal(res.p_hat.lam, np.full(2 ** 7, 2.0 ** -7))

    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_init_weights_as_on_the_corner_set(self, make_tree):
        # the start mixture is read from the tree's rows, one weight per corner
        tm = make_tree()
        ms = tree_measure_set(tm)
        rng = rng_from_seed(97 + tm.depth)
        for level in range(tm.depth):
            part = tm.level_partition(level)
            x = RandomVariable(tm.space, dyadic_leaves(rng, tm))
            M = x.bound
            for init in (rng.dirichlet(np.ones(len(ms))), np.arange(len(ms)) == len(ms) - 1):
                got = solve_mmse(tm, x, part, init_weights=init)
                want = solve_mmse(ms, x, part, init_weights=init)
                assert got.converged and want.converged
                assert np.max(np.abs(got.eta_hat.values - want.eta_hat.values)) <= 1e-9 * M
                assert abs(got.alpha - want.alpha) <= 1e-9 * M * M
        x = RandomVariable(tm.space, rng.normal(size=tm.num_leaves))
        with pytest.raises(ArgumentError, match="init_weights"):
            solve_mmse(tm, x, tm.level_partition(0), init_weights=np.ones(len(ms) - 1))
        # also for a measurable xi, which returns before any weight is read
        part = tm.level_partition(tm.depth)
        for init in (np.ones(len(ms) - 1), -np.ones(len(ms))):
            with pytest.raises(ArgumentError, match="init_weights"):
                solve_mmse(tm, x, part, init_weights=init)

    def test_refused_like_the_corner_set(self):
        tm = TreeModel.drift_bound(5)
        x = RandomVariable(tm.space, np.arange(32.0))
        with pytest.raises(GuardRefusalError, match="dense over the corners"):
            solve_mmse(tm, x, tm.level_partition(4))

    @pytest.mark.parametrize("as_tree", [False, True], ids=["corner-set", "tree"])
    def test_residue_weight_does_not_stop_the_solve(self, as_tree):
        # a Newton step left a dropped corner at weight 1.2e-15, which clipped
        # every later step to nothing; the solve stopped at gap 8.4e-6
        tm = TreeModel(
            3,
            [0.3125, 0.25, 0.125, 0.375, 0.4375, 0.375, 0.3125],
            [0.625, 0.4375, 0.625, 0.5625, 0.6875, 0.6875, 0.5],
        )
        x = RandomVariable(tm.space, [0, 0.3125, -1.9375, 2, -1, -0.875, 1.5625, -1.5])
        res = solve_mmse(tm if as_tree else tree_measure_set(tm), x, tm.level_partition(2))
        assert res.converged
        assert res.saddle_gap <= 1e-12
        assert res.alpha == pytest.approx(2.590225219726563, abs=1e-12)


class TestCompareAgainstCornerSet:
    @pytest.mark.parametrize("make_tree", ORACLE_TREES)
    def test_gexp_estimator_matches_corner_set(self, make_tree):
        tm = make_tree()
        ms = tree_measure_set(tm)
        v = dyadic_leaves(rng_from_seed(95 + tm.depth), tm)
        x = RandomVariable(ms.space, v)
        root = g_expectation(tm, v).root_value
        for level in range(tm.depth):
            rep = compare_gexp_mmse(tm, v, level)
            want = solve_mmse(ms, x, tm.level_partition(level))
            assert np.max(np.abs(rep.mmse.values - want.eta_hat.values)) <= 1e-9 * x.bound
            assert abs(rep.estimator.alpha - want.alpha) <= 1e-9 * x.bound ** 2
            assert rep.rho_root == pytest.approx(root, abs=1e-12 * x.bound)
            if is_exact(tm, v):
                assert rep.rho_root == rho(ms, x) == root

    def test_rho_root_is_a_separate_computation(self):
        # rho_root is E_c[xi] read off corner c's leaf law, not the recursion's
        # root, so the representation gap compares two computations
        rng = rng_from_seed(96)
        differs = 0
        for i in range(12):
            tm = per_node_tree(3, 200 + i)
            v = rng.normal(size=tm.num_leaves) * 3.0
            rep = compare_gexp_mmse(tm, v, 1)
            root, best, _ = tm.support(v, -math.inf)
            assert rep.rho_root == float(tm.rows([best])[0] @ v)
            assert rep.rho_root == pytest.approx(root, abs=1e-12 * np.max(np.abs(v)))
            differs += rep.rho_root != root
        assert differs > 0

    def test_one_sweep_besides_the_solve(self, monkeypatch):
        # the recursion, its root and the maximizing corner come from one sup
        # sweep; every other sweep is the solver's own
        rng = rng_from_seed(97)
        cases = []
        for tm in (TreeModel.drift_bound(3), per_node_tree(3, 210)):
            v = rng.normal(size=tm.num_leaves)
            rho_root = tm.rows([tm.support(v, -math.inf)[1]])[0] @ v
            cases.append((tm, v, g_expectation(tm, v).y.tolist(), rho_root))
        sweeps = []
        sweep = TreeModel._sweep

        def counted(tm, v, pick):
            sweeps.append(pick)
            return sweep(tm, v, pick)

        monkeypatch.setattr(TreeModel, "_sweep", counted)
        for tm, v, y, rho_root in cases:
            for level in range(tm.depth):
                sweeps.clear()
                solve_mmse(tm, RandomVariable(tm.space, v), tm.level_partition(level))
                alone = len(sweeps)
                sweeps.clear()
                rep = compare_gexp_mmse(tm, v, level)
                assert len(sweeps) == alone + 1 and sweeps[0] is max
                assert rep.recursion.y.tolist() == y and rep.rho_root == rho_root

    def test_certify_sweeps_four_times_and_rho_once(self, monkeypatch):
        # certify asks support four times, one sup sweep each: the saddle's
        # maximum, rho_sq with its ties, and the largest a_k and -a_k of the
        # NS guard; rho asks it once. No inf sweep runs
        tm = per_node_tree(3, 211)
        x = RandomVariable(tm.space, rng_from_seed(98).normal(size=tm.num_leaves))
        c = tm.level_partition(1)
        res = solve_mmse(tm, x, c)
        sweeps = []
        sweep = TreeModel._sweep

        def counted(tm, v, pick):
            sweeps.append(pick)
            return sweep(tm, v, pick)

        monkeypatch.setattr(TreeModel, "_sweep", counted)
        certify(tm, x, c, res)
        assert sweeps == [max] * 4
        sweeps.clear()
        rho(tm, x)
        assert sweeps == [max]

    def test_traced_solve_is_the_estimators(self, monkeypatch):
        # gexp's solve goes through estimator.solve_mmse, by module attribute
        calls = []
        solve = gexp.solve_mmse

        def counted(ms, *args, **kwargs):
            calls.append(type(ms).__name__)
            return solve(ms, *args, **kwargs)

        monkeypatch.setattr(gexp, "solve_mmse", counted)
        compare_gexp_mmse(TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0], 1)
        assert calls == ["TreeModel"]


NOT_INTEGERS = [
    pytest.param(1.0, id="float"), pytest.param(True, id="bool"),
    pytest.param(np.float64(1.0), id="float64"), pytest.param("1", id="str"),
]


class TestArgumentsRefused:
    def test_level_beyond_depth(self):
        with pytest.raises(ArgumentError, match=r"0\.\.2"):
            TreeModel.drift_bound(2).level_partition(3)

    @pytest.mark.parametrize("level", NOT_INTEGERS)
    def test_partition_level_is_an_integer(self, level):
        # 1.0 raised a bare TypeError and True read as level 1; np.float64(1.0)
        # did both, as the partition cache matches a key equal to a cached 1
        tm = TreeModel.drift_bound(2)
        assert tm.level_partition(np.int64(1)) is tm.level_partition(1)
        with pytest.raises(ArgumentError, match="level must be an integer"):
            tm.level_partition(level)

    @pytest.mark.parametrize("level", NOT_INTEGERS)
    def test_comparison_level_is_an_integer(self, level):
        tm, v = TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0]
        assert compare_gexp_mmse(tm, v, np.int32(1)).gexp_cond == compare_gexp_mmse(tm, v, 1).gexp_cond
        with pytest.raises(ArgumentError, match="comparison level must be an integer"):
            compare_gexp_mmse(tm, v, level)

    @pytest.mark.parametrize("level", NOT_INTEGERS)
    def test_result_level_is_an_integer(self, level):
        res = g_expectation(TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0])
        for query in (res.level_values, res.level_z):
            assert np.array_equal(query(np.int64(1)), query(1))
            with pytest.raises(ArgumentError, match="level must be an integer"):
                query(level)

    def test_result_level_out_of_range(self):
        res = g_expectation(TreeModel.drift_bound(2), [1.0, 0.0, 0.0, 0.0])
        assert [len(res.level_values(d)) for d in range(3)] == [1, 2, 4]
        assert [len(res.level_z(d)) for d in range(2)] == [1, 2]
        for query, level, top in ((res.level_values, 3, 2), (res.level_values, -1, 2),
                                  (res.level_z, 2, 1), (res.level_z, -1, 1)):
            with pytest.raises(ArgumentError, match=rf"level {level} out of range 0\.\.{top}"):
                query(level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_leaf_values_finite(self, bad):
        with pytest.raises(ArgumentError, match="finite"):
            g_expectation(TreeModel.drift_bound(2), [1.0, bad, 0.0, 0.0])
