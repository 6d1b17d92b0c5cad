"""Dense two-phase simplex with Bland's rule, plus two wrappers: convex-hull
membership, and a box-constrained epigraph minimization. The package uses
the simplex only through hull_membership (the kernel and NS hull tests and
the stability pastings); the tests use box_epigraph_min as the exact
reference for the NS lower bound.

The problems here have few rows (one per block or sample point), though
kernel membership on a depth-4 tree has 32,768 columns, so a dense tableau is
the simplest thing that is bit-reproducible: Bland's anti-cycling pivot makes
the pivot sequence, and therefore the result, deterministic. The tolerances
(PIVOT_EPS, feas_tol) are absolute, so callers pass data scaled to order one.

Both phases run one Bland loop: phase 1 on the phase-1 cost row over every
column, phase 2 on the phase-2 cost row over the structural columns. Each
pivot is one rank-1 update of the tableau; only the ratio test walks rows in
Python, since its tie rule chains in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError

PIVOT_EPS = 1e-11
# the phase-1 residual that counts as feasible: the default of solve_lp,
# hull_membership and stability.is_stable, and the fixed tolerance of the
# kernel and NS hull tests
HULL_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    value: float
    residual: float  # phase-1 objective: total artificial mass left
    pivots: int


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def _bland(T, basis, cost, ncols, pivots, max_pivots):
    """Pivot on cost row T[cost] over columns 0..ncols-1 until no reduced cost
    is below -PIVOT_EPS. Returns (pivots, bounded). Bland's rule: the first
    improving column enters, and the ratio test breaks near-ties (within
    PIVOT_EPS, chained in row order) toward the smallest basic index."""
    m = len(basis)
    while True:
        entering = np.flatnonzero(T[cost, :ncols] < -PIVOT_EPS)
        if entering.size == 0:
            return pivots, True
        col = entering[0]
        row, best = -1, np.inf
        for i in np.flatnonzero(T[:m, col] > PIVOT_EPS):
            ratio = T[i, -1] / T[i, col]
            if ratio < best - PIVOT_EPS or (
                ratio < best + PIVOT_EPS and (row < 0 or basis[i] < basis[row])
            ):
                row, best = i, ratio
        if row < 0:
            return pivots, False
        _pivot(T, basis, row, col)
        pivots += 1
        if pivots > max_pivots:
            raise NonconvergenceError(f"simplex pivot limit of {max_pivots} exceeded")


def solve_lp(c, A, b, *, feas_tol=HULL_TOL, max_pivots=100_000) -> LpResult:
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
    basis = np.arange(n, n + m)

    pivots, bounded = _bland(T, basis, m + 1, n + m, 0, max_pivots)
    if not bounded:  # phase-1 objective is bounded below by 0; cannot happen
        raise NonconvergenceError("simplex phase-1 ratio test failed")
    residual = max(0.0, -T[m + 1, -1])

    def extract():
        x = np.zeros(n)
        rows = np.flatnonzero(basis < n)
        x[basis[rows]] = T[rows, -1]
        return x

    if residual > feas_tol:
        return LpResult("infeasible", extract(), np.inf, residual, pivots)

    # drive leftover artificials out of the basis where a real pivot exists;
    # rows that admit none are redundant and stay inert
    for i in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_EPS)
        if cols.size:
            _pivot(T, basis, i, cols[0])
            pivots += 1

    pivots, bounded = _bland(T, basis, m, n, pivots, max_pivots)
    x = extract()
    if not bounded:
        return LpResult("unbounded", x, -np.inf, residual, pivots)
    return LpResult("optimal", x, float(c @ x), residual, pivots)


def hull_membership(points, target, tol=HULL_TOL):
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
    if res.status == "optimal":  # sum(mu) = 1 within feas_tol, so the sum is > 0
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
    A[:k, :m] = B
    A[:k, m] = 1.0
    A[:k, m + 1] = -1.0
    A[np.arange(k), m + 2 + np.arange(k)] = -1.0
    A[k:, :m] = np.eye(m)
    A[k:, m + 2 + k :] = np.eye(m)
    b = np.concatenate([a + M * B.sum(axis=1), np.full(m, 2.0 * M)])
    c = np.zeros(n)
    c[m] = 1.0
    c[m + 1] = -1.0

    res = solve_lp(c, A, b)
    if res.status != "optimal":  # feasible and bounded by construction
        raise NonconvergenceError(f"epigraph LP ended {res.status}")
    eta = res.x[:m] - M
    return float(res.value), eta
