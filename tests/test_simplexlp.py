import numpy as np
import pytest

from robustmse.errors import NonconvergenceError, RobustMseError
from robustmse.simplexlp import box_epigraph_min, hull_membership, solve_lp


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
