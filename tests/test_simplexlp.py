import numpy as np
import pytest

from robustmse import simplexlp
from robustmse.errors import NonconvergenceError, RobustMseError
from robustmse.simplexlp import PIVOT_EPS, LpResult, box_epigraph_min, hull_membership, solve_lp

# Reference: the two-phase simplex written with one Python loop per phase and
# per tableau row. solve_lp must take exactly its pivot sequence.


def _ref_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _ref_enter(cost_row, allowed, eps):
    for j in allowed:
        if cost_row[j] < -eps:
            return j
    return -1


def _ref_leave(T, basis, col, m, eps):
    best_row, best_ratio = -1, np.inf
    for i in range(m):
        a = T[i, col]
        if a > eps:
            ratio = T[i, -1] / a
            if ratio < best_ratio - eps or (
                ratio < best_ratio + eps
                and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best_row, best_ratio = i, ratio
    return best_row


def reference_solve_lp(c, A, b, *, feas_tol=1e-9, max_pivots=100_000) -> LpResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    T = np.zeros((m + 2, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    T[m + 1, :n] = -A.sum(axis=0)
    T[m + 1, -1] = -b.sum()
    basis = [n + i for i in range(m)]

    pivots = 0
    all_cols = list(range(n + m))
    while True:
        col = _ref_enter(T[m + 1], all_cols, PIVOT_EPS)
        if col < 0:
            break
        row = _ref_leave(T, basis, col, m, PIVOT_EPS)
        if row < 0:
            raise NonconvergenceError("simplex phase-1 ratio test failed")
        _ref_pivot(T, basis, row, col)
        pivots += 1
        if pivots > max_pivots:
            raise NonconvergenceError(f"simplex pivot limit of {max_pivots} exceeded")

    residual = max(0.0, -T[m + 1, -1])

    def extract():
        x = np.zeros(n)
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = T[i, -1]
        return x

    if residual > feas_tol:
        return LpResult("infeasible", extract(), np.inf, residual, pivots)
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > PIVOT_EPS:
                    _ref_pivot(T, basis, i, j)
                    pivots += 1
                    break

    structural = list(range(n))
    while True:
        col = _ref_enter(T[m], structural, PIVOT_EPS)
        if col < 0:
            break
        row = _ref_leave(T, basis, col, m, PIVOT_EPS)
        if row < 0:
            return LpResult("unbounded", extract(), -np.inf, residual, pivots)
        _ref_pivot(T, basis, row, col)
        pivots += 1
        if pivots > max_pivots:
            raise NonconvergenceError(f"simplex pivot limit of {max_pivots} exceeded")
    x = extract()
    return LpResult("optimal", x, float(c @ x), residual, pivots)


def same_as_reference(c, A, b, **kw) -> LpResult:
    """solve_lp, asserted to match the reference in every field."""
    res, ref = solve_lp(c, A, b, **kw), reference_solve_lp(c, A, b, **kw)
    assert (res.status, res.pivots, res.value, res.residual) == (
        ref.status,
        ref.pivots,
        ref.value,
        ref.residual,
    )
    assert np.array_equal(res.x, ref.x)
    return res


class TestSolveLp:
    def test_known_optimum(self):
        # min -x - y s.t. x + y + s = 1: optimum value -1 on the segment
        c = np.array([-1.0, -1.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([1.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.0)

    def test_two_constraints(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 2, x1 - x2 = 0  ->  x = (1, 1)
        c = np.array([1.0, 2.0])
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([2.0, 0.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, 1.0])

    def test_pivot_limit_is_a_typed_error(self):
        # the optimum of test_known_optimum needs one pivot
        A = np.array([[1.0, 1.0, 1.0]])
        with pytest.raises(NonconvergenceError, match="pivot limit") as err:
            solve_lp(np.array([-1.0, -1.0, 0.0]), A, np.array([1.0]), max_pivots=0)
        assert isinstance(err.value, RobustMseError)

    def test_infeasible(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        res = solve_lp(np.zeros(2), A, b)
        assert res.status == "infeasible"
        assert res.residual > 0.4

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0: both can grow forever
        c = np.array([-1.0, 0.0])
        A = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        res = solve_lp(c, A, b)
        assert res.status == "unbounded"

    def test_negative_rhs_normalized(self):
        c = np.array([1.0, 0.0])
        A = np.array([[-1.0, -1.0]])
        b = np.array([-2.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0)
        assert res.x[1] == pytest.approx(2.0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 6))
        x0 = rng.uniform(0.2, 1.0, size=6)
        b = A @ x0
        c = rng.normal(size=6)
        first = solve_lp(c, A, b)
        for _ in range(3):
            again = solve_lp(c, A, b)
            assert again.status == first.status
            assert np.array_equal(again.x, first.x)


class TestHullMembership:
    def test_interior_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        member, mu, residual = hull_membership(pts, np.array([0.25, 0.25]))
        assert member
        assert residual <= 1e-9
        assert mu @ pts == pytest.approx([0.25, 0.25], abs=1e-9)

    def test_vertex(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        member, mu, _ = hull_membership(pts, np.array([1.0, 0.0]))
        assert member
        assert mu == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_outside_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        member, _, residual = hull_membership(pts, np.array([0.8, 0.8]))
        assert not member
        assert residual > 1e-3

    def test_near_miss_tolerance(self):
        pts = np.array([[0.0], [1.0]])
        member, _, _ = hull_membership(pts, np.array([1.0 + 5e-10]), tol=1e-9)
        assert member
        member, _, _ = hull_membership(pts, np.array([1.01]), tol=1e-9)
        assert not member


class TestBoxEpigraph:
    def test_hand_checked(self):
        # max(6.75, -3.75 + 3 eta) minimized over eta in [-8, 8] -> 6.75
        value, eta = box_epigraph_min(
            np.array([6.75, -3.75]), np.array([[0.0], [-3.0]]), 8.0
        )
        assert value == pytest.approx(6.75, abs=1e-9)
        assert eta[0] <= 3.5 + 1e-9

    def test_crossing_point(self):
        # max(16.5 - 1.5 eta, 1.5 + 1.5 eta): balanced at eta = 5, value 9
        value, eta = box_epigraph_min(
            np.array([16.5, 1.5]), np.array([[1.5], [-1.5]]), 8.0
        )
        assert value == pytest.approx(9.0, abs=1e-9)
        assert eta[0] == pytest.approx(5.0, abs=1e-8)

    def test_box_binds(self):
        # single decreasing cut: minimum sits at the box edge
        value, eta = box_epigraph_min(np.array([0.0]), np.array([[1.0]]), 2.0)
        assert eta[0] == pytest.approx(2.0, abs=1e-9)
        assert value == pytest.approx(-2.0, abs=1e-9)


class TestPivotSequence:
    """solve_lp against the reference on seeded LPs of every shape it meets."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "target, member",
        [("vertex", True), ("face", True), ("inside", True), ("outside", False)],
    )
    def test_hull_with_duplicate_points(self, monkeypatch, seed, target, member):
        # the unit vectors, two of them twice, and dyadic points inside the
        # simplex they span with the origin, in shuffled order
        rng = np.random.default_rng(seed)
        inner = rng.integers(0, 3, size=(int(rng.integers(2, 6)), 3)) / 8
        points = np.vstack([np.eye(3), np.eye(3)[:2], inner])[rng.permutation(5 + len(inner))]
        goal = {
            "vertex": np.eye(3)[1],
            "face": np.array([0.5, 0.5, 0.0]),
            "inside": points.mean(axis=0),
            "outside": np.array([0.625, 0.625, 0.0]),
        }[target]
        monkeypatch.setattr(simplexlp, "solve_lp", same_as_reference)
        assert hull_membership(points, goal)[0] == member

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "shape, status",
        [
            ("optimal", "optimal"),
            ("redundant", "optimal"),
            ("infeasible", "infeasible"),
            ("unbounded", "unbounded"),
        ],
    )
    def test_random_equality_lp(self, seed, shape, status):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 6)), int(rng.integers(6, 12))
        A = rng.integers(-4, 5, size=(m, n)) / 4
        c = rng.normal(size=n)
        if shape == "unbounded":  # x_0 = x_1 = t is a ray of falling cost
            A[:, 1] = -A[:, 0]
            c[1] = -c[0] - 1.0
        else:  # one row bounds the feasible set
            A[0] = 1.0
        if shape == "redundant":  # its artificial can stay basic after phase 1
            A[2] = A[0] + A[1]
        b = A @ rng.uniform(0.0, 1.0, size=n)
        if shape == "infeasible":  # two rows with the same left side
            A[1], b[1] = A[0], b[0] + 1.0
        res = same_as_reference(c, A, b)
        assert res.status == status
        # the pivot limit stops both at the same pivot
        for limit in range(res.pivots):
            outcome = []
            for solve in (solve_lp, reference_solve_lp):
                try:
                    outcome.append(solve(c, A, b, max_pivots=limit).pivots)
                except NonconvergenceError:
                    outcome.append(None)
            assert outcome[0] == outcome[1]

    def test_ratio_ties_chain_in_row_order(self):
        # ratios 1 + 1.2e-11, 1 + 0.6e-11, 1: row 1 ties row 0 but has the
        # larger basic index, and row 2 beats row 0 by more than PIVOT_EPS
        # though it ties row 1. The sequential rule takes row 2; the smallest
        # basic index among the rows within PIVOT_EPS of the minimum is row 1.
        A = np.hstack([np.ones((3, 1)), np.eye(3)])
        b = 1.0 + np.array([1.2e-11, 0.6e-11, 0.0])
        res = same_as_reference(np.zeros(4), A, b)
        assert res.x[0] == 1.0

    def test_redundant_row_drives_out_on_the_first_column(self):
        # row 2 is row 0 + row 1, so artificials are still basic, at zero,
        # when phase 1 ends; driving one out on a later column than the first
        # with a nonzero entry costs phase 2 an extra pivot here
        A = np.array([[0.0, 0.0, 1.0, 0.0], [2.0, 1.0, 2.0, 0.0], [2.0, 1.0, 3.0, 0.0]])
        res = same_as_reference(np.array([-1.0, 3.0, -1.0, 0.0]), A, np.array([1.0, 2.0, 3.0]))
        assert (res.status, res.pivots, res.value) == ("optimal", 3, -1.0)
