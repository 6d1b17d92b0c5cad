import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustmse import (
    ArgumentError,
    Filtration,
    Measure,
    MeasureSet,
    PartitionAlgebra,
    PastingDegeneracyError,
    PropernessError,
    RandomVariable,
    SampleSpace,
    TreeModel,
    is_stable,
    mmse_time_consistency_search,
    paste,
    recursivity_check,
    replay_counterexample,
    tree_measure_set,
)
import robustmse.simplexlp as simplexlp
from robustmse.randgen import (
    random_measure_set,
    random_two_level_filtration,
    random_variable,
    rng_from_seed,
)
from robustmse.simplexlp import first_outside, hull_membership, solve_lp
from robustmse.stability import recursivity_grid


def upper_one_at_a_time(ms, values, level):
    """The upper envelope of one value vector at level, per point."""
    ((_, upper),) = ms.envelopes(values, [level])
    return upper[level.labels]


@pytest.fixture
def four_point():
    space = SampleSpace(("uu", "ud", "du", "dd"))
    f = Filtration(
        [
            PartitionAlgebra.trivial(space),
            PartitionAlgebra(space, [(0, 1), (2, 3)]),
            PartitionAlgebra.discrete(space),
        ]
    )
    return space, f


@pytest.fixture
def diagonal_pair(four_point):
    """Two strictly positive measures whose level-1 pasting leaves the hull."""
    space, f = four_point
    p = Measure(space, [8 / 16, 4 / 16, 2 / 16, 2 / 16])
    q = Measure(space, [2 / 16, 2 / 16, 4 / 16, 8 / 16])
    return space, f, MeasureSet([p, q])


class TestPaste:
    def test_self_pasting_is_identity(self, four_point):
        space, f = four_point
        q = Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])
        for level in range(3):
            assert paste(q, q, f, level).result == q

    @pytest.mark.parametrize("level", [1.0, True, "1"])
    def test_level_is_an_integer(self, four_point, level):
        # 1.0 raised a bare TypeError, and True pasted at level 1
        space, f = four_point
        q0 = Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])
        q = Measure(space, [1 / 16, 7 / 16, 4 / 16, 4 / 16])
        assert paste(q0, q, f, np.int64(1)) == paste(q0, q, f, 1)
        with pytest.raises(ArgumentError, match="switch level must be an integer"):
            paste(q0, q, f, level)

    def test_level_zero_keeps_tail(self, four_point):
        space, f = four_point
        q0 = Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])
        q = Measure(space, [1 / 16, 7 / 16, 4 / 16, 4 / 16])
        assert paste(q0, q, f, 0).result == q

    def test_last_level_keeps_base(self, four_point):
        space, f = four_point
        q0 = Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])
        q = Measure(space, [1 / 16, 7 / 16, 4 / 16, 4 / 16])
        assert paste(q0, q, f, 2).result == q0

    def test_block_masses_match_base(self, four_point):
        space, f = four_point
        q0 = Measure(space, [8 / 16, 4 / 16, 2 / 16, 2 / 16])
        q = Measure(space, [2 / 16, 2 / 16, 4 / 16, 8 / 16])
        out = paste(q0, q, f, 1)
        for b in f.levels[1].blocks:
            idx = list(b)
            assert np.sum(out.result.weights[idx]) == pytest.approx(np.sum(q0.weights[idx]), abs=1e-12)

    def test_degenerate_tail_rejected(self, four_point):
        space, f = four_point
        q0 = Measure(space, [8 / 16, 4 / 16, 2 / 16, 2 / 16])
        q = Measure(space, [8 / 16, 8 / 16, 0.0, 0.0])
        with pytest.raises(PastingDegeneracyError) as err:
            paste(q0, q, f, 1)
        assert err.value.block == (2, 3)

    def test_level_out_of_range(self, four_point):
        space, f = four_point
        q = Measure(space, [0.25] * 4)
        with pytest.raises(ArgumentError):
            paste(q, q, f, 3)


class TestIsStable:
    def test_rectangular_tree_set_is_stable(self):
        tm = TreeModel.drift_bound(2, 0.25)
        ms = tree_measure_set(tm)
        f = Filtration([tm.level_partition(d) for d in range(3)])
        report = is_stable(ms, f)
        assert report.stable
        assert report.witness is None
        assert report.pastings_checked == 8 * 7 * 3

    def test_diagonal_pair_is_not(self, diagonal_pair):
        _, f, ms = diagonal_pair
        report = is_stable(ms, f)
        assert not report.stable
        assert report.witness is not None
        assert report.witness.switch_level == 1
        assert report.witness_residual > 1e-3  # no spurious witnesses

    def test_single_generator_stable(self, four_point):
        space, f = four_point
        ms = MeasureSet([Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])])
        assert is_stable(ms, f).stable

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), shuffled=st.booleans())
    def test_batched_block_sums_match_each_row(self, seed, shuffled):
        # is_stable sums every generator's block masses in one batch, and
        # paste one row at a time: both must give the same bits, on blocks
        # long enough to be summed pairwise, in place and gathered
        rng = rng_from_seed(seed)
        sizes = rng.integers(100, 300, size=int(rng.integers(1, 6)))
        points = rng.permutation(sizes.sum()) if shuffled else np.arange(sizes.sum())
        space = SampleSpace.of_size(len(points))
        c = PartitionAlgebra(space, np.split(points, np.cumsum(sizes)[:-1]))
        k = int(rng.integers(1, 40))
        W = rng.random((k, len(points))) * (rng.random((k, len(points))) < 0.8)
        rows = np.array([c.block_sums(r) for r in W])
        assert c.block_sums(W).tobytes() == rows.tobytes()
        assert c.block_sums(W[:, None, :])[:, 0].tobytes() == rows.tobytes()

    def test_requires_strictly_positive(self, four_point):
        space, f = four_point
        ms = MeasureSet(
            [Measure(space, [0.5, 0.5, 0.0, 0.0]), Measure(space, [0.25] * 4)]
        )
        with pytest.raises(PropernessError):
            is_stable(ms, f)


def reference_is_stable(ms, f):
    """The unscreened check: one hull LP per pasting, in (base, tail, level)
    order. Returns (stable, witness, witness_residual, pastings_checked)."""
    points = ms.weights_matrix
    checked = 0
    for a, ga in enumerate(ms.generators):
        for b, gb in enumerate(ms.generators):
            if a == b:
                continue
            for level in range(len(f.levels)):
                pasted = paste(ga, gb, f, level)
                checked += 1
                member, _, residual = hull_membership(points, pasted.result.weights)
                if not member:
                    return False, pasted, residual, checked
    return True, None, 0.0, checked


@pytest.fixture
def counted_hull_tests(monkeypatch):
    """Records how many pastings each batched hull solve of is_stable decides:
    all its targets, or those up to its first nonmember. It wraps the name
    is_stable calls."""
    decided = []

    def counting(points, targets):
        out = first_outside(points, targets)
        decided.append(len(targets) if out is None else out[0] + 1)
        return out

    monkeypatch.setattr(simplexlp, "first_outside", counting)
    return decided


def tree_filtration(tm):
    return Filtration([tm.level_partition(d) for d in range(tm.depth + 1)])


def filtration_set(rng, live_nodes, mixtures):
    """A depth-3 rectangular tree with `live_nodes` non-degenerate nodes, its
    corners as explicit generators, plus dyadic midpoints of corner pairs:
    stable along the tree's level filtration."""
    lo = rng.integers(2, 8, size=7) / 16
    hi = lo.copy()
    live = rng.choice(7, size=live_nodes, replace=False)
    hi[live] = lo[live] + rng.integers(1, 6, size=live_nodes) / 16
    tm = TreeModel(3, lo, hi)
    corners = tree_measure_set(tm).weights_matrix
    pairs = [rng.choice(len(corners), size=2, replace=False) for _ in range(mixtures)]
    rows = [*corners, *((corners[a] + corners[b]) / 2 for a, b in pairs)]
    return MeasureSet.from_matrix(tm.space, rows), tree_filtration(tm)


def near_boundary_set(eps):
    """The depth-2 drift-bound corners with the last one pulled toward their
    mean by eps: the last corner is still a pasting of the others, and it now
    lies about 6 * eps outside the hull."""
    tm = TreeModel.drift_bound(2, 0.25)
    corners = tree_measure_set(tm).weights_matrix
    rows = corners.copy()
    rows[-1] = (1 - eps) * corners[-1] + eps * corners.mean(axis=0)
    return MeasureSet.from_matrix(tm.space, rows), tree_filtration(tm)


def near_face_set(eps, pulled, pair, midpoint_first):
    """The depth-2 drift-bound corners with one pulled toward their mean by
    eps, and the midpoint of a pair of them (after the pull) before or after
    them. Pastings of the pulled corner lie about eps outside the hull, and
    the midpoint's pastings lie on a face next to them."""
    tm = TreeModel.drift_bound(2, 0.25)
    corners = tree_measure_set(tm).weights_matrix
    rows = corners.copy()
    rows[pulled] = (1 - eps) * corners[pulled] + eps * corners.mean(axis=0)
    midpoint = (rows[pair[0]] + rows[pair[1]]) / 2
    rows = np.vstack([midpoint, rows] if midpoint_first else [rows, midpoint])
    return MeasureSet.from_matrix(tm.space, rows), tree_filtration(tm)


def assert_matches_reference(ms, f, hull_calls, tol=1e-9):
    """is_stable against reference_is_stable, both with the hull tolerance
    HULL_TOL set to tol."""
    del hull_calls[:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplexlp, "HULL_TOL", tol)
        report = is_stable(ms, f)
        stable, witness, residual, checked = reference_is_stable(ms, f)
    assert report.stable == stable
    assert report.pastings_checked == checked
    assert report.hull_tests == sum(hull_calls)
    assert report.witness_residual == residual  # bit for bit: the same LP ran
    if witness is None:
        assert report.witness is None
    else:
        assert report.witness.switch_level == witness.switch_level
        assert report.witness.base == witness.base
        assert report.witness.tail == witness.tail
        assert report.witness.result == witness.result
    return report


class TestScreen:
    """The screen may only skip LPs that would have answered "member"."""

    @pytest.mark.parametrize("live_nodes", [3, 4])
    @pytest.mark.parametrize("mixtures", [0, 4])
    @pytest.mark.parametrize("seed", [3001, 3002])
    def test_stable_filtration_sets(self, counted_hull_tests, live_nodes, mixtures, seed):
        # mixtures make pastings that lie strictly inside the hull: some of
        # them match no generator and are decided by the LP
        ms, f = filtration_set(rng_from_seed(seed * 10 + live_nodes), live_nodes, mixtures)
        report = assert_matches_reference(ms, f, counted_hull_tests)
        assert report.stable
        if mixtures == 0:
            assert report.hull_tests == 0  # every pasting is a corner

    @pytest.mark.parametrize("seed", [3003, 3004, 3005])
    def test_set_missing_a_corner(self, counted_hull_tests, seed):
        rng = rng_from_seed(seed)
        ms, f = filtration_set(rng, 4, 4 * (seed % 2))
        keep = np.delete(np.arange(len(ms)), rng.integers(0, 16))
        smaller = MeasureSet.from_matrix(ms.space, ms.weights_matrix[keep])
        report = assert_matches_reference(smaller, f, counted_hull_tests)
        assert not report.stable

    def test_diagonal_pair(self, counted_hull_tests, diagonal_pair):
        _, f, ms = diagonal_pair
        assert not assert_matches_reference(ms, f, counted_hull_tests).stable

    @pytest.mark.parametrize("seed", range(40, 52))
    def test_random_sets(self, counted_hull_tests, seed):
        rng = rng_from_seed(seed)
        space = SampleSpace.of_size(int(rng.integers(4, 9)))
        f = random_two_level_filtration(rng, space)
        ms = random_measure_set(rng, space, int(rng.integers(2, 6)))
        assert_matches_reference(ms, f, counted_hull_tests)
        tm = TreeModel.drift_bound(3, 0.25)
        rows = rng.integers(1, 64, size=(int(rng.integers(2, 6)), 8)).astype(float)
        ms = MeasureSet.from_matrix(tm.space, rows / rows.sum(axis=1, keepdims=True))
        assert_matches_reference(ms, tree_filtration(tm), counted_hull_tests)

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_pasting_just_outside_the_hull(self, counted_hull_tests, eps):
        ms, f = near_boundary_set(eps)
        report = assert_matches_reference(ms, f, counted_hull_tests)
        assert not report.stable
        residual = report.witness_residual
        assert 1e-9 < residual < 1e-5
        # the certificate against the nearest generator is within a factor
        # two of the LP residual, so a tolerance between them still sends
        # the pasting to the LP; above the residual the set passes
        for tol in (0.75 * residual, 0.95 * residual, 1.5 * residual):
            report = assert_matches_reference(ms, f, counted_hull_tests, tol)
            assert report.stable == (tol > residual)

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    @pytest.mark.parametrize(
        "pulled, pair, midpoint_first",
        [
            (0, (0, 4), True),  # the face's pastings come in the witness's base
            (4, (0, 7), False),  # in an earlier base
        ],
    )
    def test_face_next_to_a_pasting_just_outside(
        self, counted_hull_tests, eps, pulled, pair, midpoint_first
    ):
        # the pastings on the face and the witness next to it go to one
        # batched solve, which must still stop at the witness, with the
        # residual one LP leaves, at a tolerance just below it
        ms, f = near_face_set(eps, pulled, pair, midpoint_first)
        first = assert_matches_reference(ms, f, counted_hull_tests)
        assert 1e-9 < first.witness_residual < 1e-5
        for scale in (0.75, 0.95, 1.5):
            tol = scale * first.witness_residual
            report = assert_matches_reference(ms, f, counted_hull_tests, tol)
            if scale < 1:
                assert report.witness == first.witness

    def test_live_five_sixteen_mixtures(self, counted_hull_tests):
        ms, f = filtration_set(rng_from_seed(3013), 5, 16)
        assert len(ms) == 48
        report = assert_matches_reference(ms, f, counted_hull_tests)
        assert report.stable
        # the screen passes exactly the pastings equal to a generator
        gens, points = ms.generators, ms.weights_matrix
        elsewhere = sum(
            not np.any(np.all(np.abs(points - paste(p, q, f, level).result.weights) <= 1e-12, 1))
            for a, p in enumerate(gens)
            for b, q in enumerate(gens)
            if a != b
            for level in range(len(f.levels))
        )
        assert report.hull_tests == elsewhere

    @pytest.mark.parametrize("mixtures", [0, 8])
    @pytest.mark.parametrize("dropped", [None, 5])
    def test_batches(self, monkeypatch, mixtures, dropped):
        ms, f = filtration_set(rng_from_seed(3014), 4, mixtures)
        if dropped is not None:
            ms = MeasureSet.from_matrix(ms.space, np.delete(ms.weights_matrix, dropped, axis=0))
        whole = is_stable(ms, f)
        assert whole.stable == (dropped is None)
        if dropped is None:
            assert (whole.hull_tests > 2) == (mixtures > 0)
        # one base per batch of pastings, and one LP per stack of tableaux
        monkeypatch.setattr(simplexlp, "BATCH_CELLS", 2 * 9)
        assert is_stable(ms, f) == whole

    @pytest.mark.parametrize("cells", [2 * 9, 1000, 5000, 1 << 24])
    @pytest.mark.parametrize("seed, dropped", [(3016, None), (3017, 9), (3018, 13)])
    def test_hull_tests_do_not_depend_on_the_cell_budget(self, monkeypatch, cells, seed, dropped):
        # a tableau has 10 x 34 cells here (10 x 33 with a generator
        # dropped): from one LP per stack (and one base per batch of
        # pastings) through 2-3 and 14-15 per stack to every pasting of a batch in
        # one stack, the report is the same, hull_tests included
        ms, f = filtration_set(rng_from_seed(seed), 4, 8)
        if dropped is not None:
            ms = MeasureSet.from_matrix(ms.space, np.delete(ms.weights_matrix, dropped, axis=0))
        whole = is_stable(ms, f)
        assert whole.hull_tests > 2
        monkeypatch.setattr(simplexlp, "BATCH_CELLS", cells)
        assert is_stable(ms, f) == whole

    def test_certificate_without_a_point(self, monkeypatch):
        # a zero fit divides by zero under np.errstate (a RuntimeWarning is an
        # error here) and certifies nothing, its NaN mass not even under an
        # infinite tolerance; b itself leaves a mass of exactly 0 (certified at a
        # tolerance of 0, not at the float just below it)
        b = np.array([[0.25, 0.75, 1.0]])
        monkeypatch.setattr(simplexlp, "HULL_TOL", np.inf)
        assert not simplexlp.column_certifies(b, np.zeros((1, 3))).any()
        monkeypatch.setattr(simplexlp, "HULL_TOL", 0.0)
        assert simplexlp.column_certifies(b, b)[0]
        monkeypatch.setattr(simplexlp, "HULL_TOL", np.nextafter(0.0, -1.0))
        assert not simplexlp.column_certifies(b, b)[0]

    def test_depth_three_tree_needs_no_lp(self, counted_hull_tests):
        ms = tree_measure_set(TreeModel.drift_bound(3, 0.25))
        assert len(ms) == 128
        report = is_stable(ms, tree_filtration(TreeModel.drift_bound(3, 0.25)))
        assert report.stable
        assert report.pastings_checked == 128 * 127 * 4
        assert report.hull_tests == 0
        assert sum(counted_hull_tests) == 0


def test_drive_out_keeps_the_solution_nonnegative(monkeypatch):
    # a phase 1 that ends at a residual just under HULL_TOL left artificial
    # mass in rows that the drive-out then pivoted on entries of either sign,
    # which pushed other basic values below 0 (down to -3.3e-7 here)
    ms, f = near_face_set(1e-6, 4, (0, 7), False)
    tol = 1.5 * is_stable(ms, f).witness_residual
    points = ms.weights_matrix
    A = np.vstack([points.T, np.ones(len(points))])
    b = np.array([3 / 16, 9 / 16, 1 / 16, 3 / 16, 1.0])
    monkeypatch.setattr(simplexlp, "HULL_TOL", tol)
    res = solve_lp(np.zeros(len(points)), A, b)
    assert res.status == "optimal"
    assert np.all(res.x >= 0.0)
    assert np.abs(A @ res.x - b).sum() <= tol


class TestRecursivity:
    def test_rectangular_set_recursive(self):
        tm = TreeModel.drift_bound(2, 0.25)
        ms = tree_measure_set(tm)
        f = Filtration([tm.level_partition(d) for d in range(3)])
        rng = rng_from_seed(31)
        for _ in range(20):
            xi = random_variable(rng, ms.space)
            for s in range(3):
                for t in range(s, 3):
                    rep = recursivity_check(ms, f, xi, s, t)
                    assert rep.equal, (s, t, rep.max_abs_gap)

    def test_witness_set_fails(self, diagonal_pair):
        space, f, ms = diagonal_pair
        xi = RandomVariable(space, [20 / 16, -27 / 16, -21 / 16, -17 / 16])
        rep = recursivity_check(ms, f, xi, 0, 1)
        assert not rep.equal
        assert rep.max_abs_gap > 1e-3

    def test_single_generator_tower(self, four_point):
        space, f = four_point
        ms = MeasureSet([Measure(space, [5 / 16, 3 / 16, 6 / 16, 2 / 16])])
        rng = rng_from_seed(32)
        for _ in range(10):
            xi = random_variable(rng, space)
            for s in range(3):
                for t in range(s, 3):
                    assert recursivity_check(ms, f, xi, s, t).equal

    def test_grid_is_the_check_at_every_pair(self):
        # the grid stacks every value vector of a level through one table of
        # means; every report is recursivity_check's, and each gap is that of
        # one envelope at a time, bit for bit: on the filtration sets (with
        # and without their first generator) and random two-level sets
        rng = rng_from_seed(2703)
        cases = []
        for live_nodes in (3, 4, 5):
            for mixtures in (0, 4, 8):
                ms, f = filtration_set(rng, live_nodes, mixtures)
                rest = MeasureSet.from_matrix(ms.space, ms.weights_matrix[1:])
                cases += [(ms, f), (rest, f)]
        for _ in range(40):
            space = SampleSpace.of_size(int(rng.integers(4, 9)))
            f = random_two_level_filtration(rng, space)
            cases.append((random_measure_set(rng, space, int(rng.integers(1, 6))), f))
        unequal = 0
        for ms, f in cases:
            xi = random_variable(rng, ms.space)
            grid, levels = recursivity_grid(ms, f, xi), len(f.levels)
            assert list(grid) == [(s, t) for s in range(levels) for t in range(s, levels)]
            ups = [upper_one_at_a_time(ms, xi.values, level) for level in f.levels]
            for (s, t), rep in grid.items():
                ref = recursivity_check(ms, f, xi, s, t)
                assert (rep.equal, rep.max_abs_gap) == (ref.equal, ref.max_abs_gap)
                rhs = upper_one_at_a_time(ms, ups[t], f.levels[s])
                assert rep.max_abs_gap == float(np.abs(ups[s] - rhs).max())
                unequal += not rep.equal
        assert unequal > 0

    def test_one_mass_table_per_level_and_stack(self, monkeypatch):
        # L levels: L tables for the envelopes of xi, then L for the stacked
        # rhs of every pair; recursivity_check takes two
        calls = []
        masses = PartitionAlgebra.charged_masses
        monkeypatch.setattr(
            PartitionAlgebra, "charged_masses", lambda c, w: calls.append(c) or masses(c, w)
        )
        ms, f = filtration_set(rng_from_seed(2704), 4, 4)
        xi = random_variable(rng_from_seed(2705), ms.space)
        recursivity_grid(ms, f, xi)
        assert len(f.levels) == 4 and len(calls) == 8
        calls.clear()
        recursivity_check(ms, f, xi, 1, 3)
        assert calls == [f.levels[3], f.levels[1]]

    @pytest.mark.parametrize(
        "sigma, tau, name",
        [(0, 1.0, "tau"), (0, True, "tau"), (0.0, 1, "sigma"), (True, 1, "sigma")],
    )
    def test_levels_are_integers(self, diagonal_pair, sigma, tau, name):
        # a float level raised a bare TypeError, and True read as level 1
        space, f, ms = diagonal_pair
        xi = RandomVariable(space, [1.0, 0.0, 0.0, 1.0])
        assert recursivity_check(ms, f, xi, np.int64(0), np.int32(1)) == recursivity_check(ms, f, xi, 0, 1)
        with pytest.raises(ArgumentError, match=f"{name} level must be an integer"):
            recursivity_check(ms, f, xi, sigma, tau)

    def test_level_order_enforced(self, diagonal_pair):
        space, f, ms = diagonal_pair
        xi = RandomVariable(space, [1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ArgumentError):
            recursivity_check(ms, f, xi, 2, 1)


class TestTimeConsistencySearch:
    def test_trials_must_be_positive(self):
        with pytest.raises(ArgumentError):
            mmse_time_consistency_search(seed=1, trials=0)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ArgumentError):
            mmse_time_consistency_search(seed=-1, trials=1)

    @pytest.mark.parametrize(
        "seed, trials, name",
        [(1.9, 1, "seed"), (True, 1, "seed"), (1, 2.5, "trials"), (1, True, "trials")],
    )
    def test_seed_and_trials_are_integers_not_truncated(self, seed, trials, name):
        # seed=1.9 used to run seed 1, and trials=2.5 raised a bare TypeError
        with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
            mmse_time_consistency_search(seed=seed, trials=trials)

    def test_numpy_integers_are_integers(self):
        want = mmse_time_consistency_search(seed=20250801, trials=50)
        got = mmse_time_consistency_search(seed=np.int64(20250801), trials=np.int32(50))
        assert got.gap == want.gap and got.trial_index == want.trial_index

    def test_seeded_search_finds_counterexample(self):
        hit = mmse_time_consistency_search(seed=20250801, trials=50)
        assert hit is not None
        assert hit.gap > 1e-3

    def test_counterexample_replays_identically(self):
        hit = mmse_time_consistency_search(seed=20250801, trials=50)
        _, _, gap = replay_counterexample(hit.measure_set, hit.xi, hit.filtration)
        assert abs(gap - hit.gap) < 1e-9

    def test_search_is_deterministic(self):
        a = mmse_time_consistency_search(seed=99, trials=25)
        b = mmse_time_consistency_search(seed=99, trials=25)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.trial_index == b.trial_index
            assert a.xi == b.xi
            assert a.gap == b.gap

    def test_single_generator_never_fails_consistency(self):
        # the tower property protects one-generator sets: scan a few instances
        rng = rng_from_seed(33)
        from robustmse import solve_mmse
        from robustmse.randgen import random_positive_measure, random_two_level_filtration

        for _ in range(10):
            n = int(rng.integers(4, 9))
            space = SampleSpace.of_size(n)
            f = random_two_level_filtration(rng, space)
            ms = MeasureSet([random_positive_measure(rng, space)])
            xi = random_variable(rng, space)
            fine = solve_mmse(ms, xi, f.levels[2]).eta_hat
            chain = solve_mmse(ms, fine, f.levels[1]).eta_hat
            direct = solve_mmse(ms, xi, f.levels[1]).eta_hat
            assert np.max(np.abs(chain.values - direct.values)) < 1e-9
