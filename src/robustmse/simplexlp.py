"""Dense two-phase simplex with Bland's rule, plus two wrappers: convex-hull
membership, and a box-constrained epigraph minimization. The package calls
only the first (the NS check is a hull test on the active generators); the
tests use the second as the exact reference for the NS lower bound.

The problems here have few rows (one per block or sample point), though
kernel membership on a depth-4 tree has 32,768 columns, so a dense tableau is
the simplest thing that is bit-reproducible: Bland's anti-cycling pivot makes
the pivot sequence, and therefore the result, deterministic. The tolerances
(PIVOT_EPS, feas_tol) are absolute, so callers pass data scaled to order one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError

PIVOT_EPS = 1e-11


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    value: float
    residual: float  # phase-1 objective: total artificial mass left
    pivots: int


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_enter(cost_row, allowed, eps):
    for j in allowed:
        if cost_row[j] < -eps:
            return j
    return -1


def _ratio_leave(T, basis, col, m, eps):
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


def solve_lp(c, A, b, *, feas_tol=1e-9, max_pivots=100_000) -> LpResult:
    """min c@x subject to A@x == b, x >= 0.

    Two-phase dense simplex. Phase 1 minimizes total artificial mass; its
    optimal value is returned as `residual` and compared against feas_tol to
    classify feasibility, so callers control the tolerance. More than
    max_pivots pivots raise NonconvergenceError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    A = A.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # tableau rows 0..m-1: constraints; row m: phase-2 costs; row m+1: phase-1 costs
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
        col = _bland_enter(T[m + 1], all_cols, PIVOT_EPS)
        if col < 0:
            break
        row = _ratio_leave(T, basis, col, m, PIVOT_EPS)
        if row < 0:  # phase-1 objective is bounded below by 0; cannot happen
            raise NonconvergenceError("simplex phase-1 ratio test failed")
        _pivot(T, basis, row, col)
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

    # drive leftover artificials out of the basis where a real pivot exists;
    # rows that admit none are redundant and stay inert
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > PIVOT_EPS:
                    _pivot(T, basis, i, j)
                    pivots += 1
                    break

    structural = list(range(n))
    while True:
        col = _bland_enter(T[m], structural, PIVOT_EPS)
        if col < 0:
            break
        row = _ratio_leave(T, basis, col, m, PIVOT_EPS)
        if row < 0:
            return LpResult("unbounded", extract(), -np.inf, residual, pivots)
        _pivot(T, basis, row, col)
        pivots += 1
        if pivots > max_pivots:
            raise NonconvergenceError(f"simplex pivot limit of {max_pivots} exceeded")

    x = extract()
    return LpResult("optimal", x, float(c @ x), residual, pivots)


def hull_membership(points, target, tol=1e-9):
    """Is `target` a convex combination of the rows of `points`?

    Decided by phase-1 feasibility of {mu >= 0, sum mu = 1, mu @ points = target};
    returns (member, mu, residual) with residual the leftover infeasibility.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    k = points.shape[0]
    A = np.vstack([points.T, np.ones((1, k))])
    b = np.concatenate([target, [1.0]])
    res = solve_lp(np.zeros(k), A, b, feas_tol=tol)
    mu = res.x
    if res.status == "optimal" and mu.sum() > 0:
        mu = np.clip(mu, 0.0, None)
        mu = mu / mu.sum()
    return res.status == "optimal", mu, res.residual


def box_epigraph_min(a, B, box_radius):
    """min over t, eta of t subject to t >= a_k - B[k] @ eta and |eta| <= box_radius.

    Epigraph LP for the lower envelope of finitely many affine functions over
    a sup-norm box. Always feasible and bounded. Returns (value, eta). Its
    constraint matrix alone has (k + m) x (k + 2m + 2) float64 cells, 8 GiB at
    k = 32768, so it serves only as an exact reference on small problems.
    """
    a = np.asarray(a, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    M = float(box_radius)

    # variables: u (m, eta = u - M), t_plus, t_minus, s (k cut slacks), w (m box slacks)
    n = m + 2 + k + m
    A = np.zeros((k + m, n))
    b = np.zeros(k + m)
    for i in range(k):
        A[i, :m] = B[i]
        A[i, m] = 1.0
        A[i, m + 1] = -1.0
        A[i, m + 2 + i] = -1.0
        b[i] = a[i] + M * B[i].sum()
    for j in range(m):
        A[k + j, j] = 1.0
        A[k + j, m + 2 + k + j] = 1.0
        b[k + j] = 2.0 * M
    c = np.zeros(n)
    c[m] = 1.0
    c[m + 1] = -1.0

    res = solve_lp(c, A, b)
    if res.status != "optimal":  # feasible and bounded by construction
        raise RuntimeError(f"epigraph LP ended {res.status}")
    eta = res.x[:m] - M
    return float(res.value), eta
