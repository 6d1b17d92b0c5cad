"""Dense two-phase simplex with Bland's rule, for hull tests: hull_membership
(kernel and NS tests), first_outside (stability pastings), and
box_epigraph_min, the tests' exact reference for the NS lower bound.

The problems have few rows (one per block or sample point), so a dense
tableau is the simplest bit-reproducible choice: Bland's rule fixes the pivot
sequence. Tolerances (PIVOT_EPS, HULL_TOL) are absolute: callers scale data to
order one. One Bland loop pivots a stack of tableaux, each as its own LP. This
module alone states membership: a phase-1 residual <= HULL_TOL in MAX_PIVOTS
pivots, which hull_witness and column_certifies bound without an LP."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonconvergenceError

PIVOT_EPS = 1e-11
# the phase-1 residual that counts as feasible, in every hull test
HULL_TOL = 1e-9
MAX_PIVOTS = 100_000
# floats in one batch of stability pastings or of first_outside's tableaux, 512 KiB
BATCH_CELLS = 1 << 16
# at a minimum ratio up to this size, best +- PIVOT_EPS rounds by less than
# PIVOT_EPS / 40, so a clear gap around the near-ties settles the tie chain
_TIE_RATIO = 1024.0


class LpResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    value: float
    residual: float  # phase-1 objective: total artificial mass left
    pivots: int

    # x is an array, which == cannot reduce to one bool
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _tableaux(A, b, c=None):
    """Tableaux for A@x == b >= 0, x >= 0, one per row of b, artificials basic:
    constraint rows, phase-1 costs (sums over C-ordered A), then c if given."""
    A = np.ascontiguousarray(A)
    (L, m), n = b.shape, A.shape[1]
    T = np.zeros((L, m + 1 + (c is not None), n + m + 1))
    T[:, :m, :n], T[:, :m, n : n + m] = A, np.eye(m)
    T[:, :m, -1] = b
    T[:, m, :n] = -A.sum(axis=0)
    T[:, m, -1] = -b.sum(axis=1)
    if c is not None:
        T[:, m + 1, :n] = c
    return T, np.tile(np.arange(n, n + m), (L, 1))


def _pivot(T, basis, row, col):
    """Pivot tableau i of the stack T on (row[i], col[i])."""
    if len(T) == 1:  # plain indexing, the same floating-point operations
        t, r, c = T[0], row[0], col[0]
        t[r] /= t[r, c]
        f = t[:, c].copy()
        f[r] = 0.0
        t -= f[:, None] * t[r]
        basis[0, r] = c
        return
    at = np.arange(len(T))
    pivot_row = T[at, row]
    pivot_row /= pivot_row[at, col][:, None]
    T[at, row] = pivot_row
    f = T[at, :, col]
    f[at, row] = 0.0
    T -= np.einsum("lr,ln->lrn", f, pivot_row)  # twice as fast as broadcasting
    basis[at, row] = col


def _leaving_rows(T, basis, col):
    """Bland's ratio test on column col[i] of tableau i (-1: no entry above
    PIVOT_EPS). In row order, a ratio below the best by over PIVOT_EPS, or
    within it with a smaller basic index, becomes the best. In a stack, where
    |min| <= _TIE_RATIO and no ratio is PIVOT_EPS/2 to 2*PIVOT_EPS above it,
    that chain ends at the smallest basic index within PIVOT_EPS/2."""
    m = basis.shape[1]
    row, rest = np.zeros(len(T), dtype=int), range(len(T))
    if len(T) > 1:
        a = T[np.arange(len(T)), :m, col]
        ratio = T[:, :m, -1] / np.where(a > PIVOT_EPS, a, np.nan)  # nan: no entry
        low = np.fmin.reduce(ratio, axis=1)  # nan if no row has one
        gap = ratio - low[:, None]
        row = np.where(gap <= PIVOT_EPS / 2, basis, T.shape[2]).argmin(axis=1)
        unclear = np.logical_or.reduce((gap > PIVOT_EPS / 2) & (gap < 2 * PIVOT_EPS), axis=1)
        rest = np.flatnonzero(unclear | ~(np.abs(low) <= _TIE_RATIO))
    for i in rest:
        a, rhs, ids = T[i, :m, col[i]].tolist(), T[i, :m, -1].tolist(), basis[i].tolist()
        pick, best = -1, np.inf
        for j in range(m):
            if a[j] > PIVOT_EPS:  # before any pick, best is inf and a finite ratio is below it
                r = rhs[j] / a[j]
                if r < best - PIVOT_EPS or (r < best + PIVOT_EPS and ids[j] < ids[pick]):
                    pick, best = j, r
        row[i] = pick
    return row


def _bland(T, basis, cost, ncols, pivots):
    """Pivot each tableau of the stack T on its cost row T[:, cost] over
    columns 0..ncols-1 until no reduced cost is below -PIVOT_EPS (the first
    improving column enters). Returns whether each ends bounded and the
    stack's pivots counted on from `pivots`; one past MAX_PIVOTS raises. A
    tableau ending unbounded or above HULL_TOL (phase 1) drops the later ones."""
    bounded = np.ones(len(T), dtype=bool)
    live, work, wbasis = np.arange(len(T)), T, basis
    while live.size:
        improving = work[:, cost, :ncols] < -PIVOT_EPS
        col = improving.argmax(axis=1)
        row = _leaving_rows(work, wbasis, col)
        optimal = ~improving.any(axis=1)
        done = optimal | (row < 0)
        if np.count_nonzero(done):
            ids = live[done]
            bounded[ids] = optimal[done]
            T[ids], basis[ids] = work[done], wbasis[done]
            keep = ~done
            if keep.any():
                failed = ids[~optimal[done] | (np.maximum(0.0, -work[done, cost, -1]) > HULL_TOL)]
                keep &= live < (failed[0] if failed.size else len(T))
            if not keep.any():
                break
            live, work, wbasis, col, row = (x[keep] for x in (live, work, wbasis, col, row))
        _pivot(work, wbasis, row, col)
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NonconvergenceError(f"simplex pivot limit of {MAX_PIVOTS} exceeded")
    return bounded, pivots


def _check_phase1(bounded):
    if not bounded:  # the phase-1 objective is bounded below by 0
        raise NonconvergenceError("simplex phase-1 ratio test failed")


def solve_lp(c, A, b) -> LpResult:
    """min c@x subject to A@x == b, x >= 0.

    Two-phase dense simplex. Phase 1 minimizes total artificial mass; its
    optimal value is returned as `residual` and is feasible when at most
    HULL_TOL. More than MAX_PIVOTS pivots raise NonconvergenceError.
    """
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)  # rows with b < 0 negated
    stack, bases = _tableaux(A * sign[:, None], (b * sign)[None], c)
    T, basis = stack[0], bases[0]
    (bounded,), pivots = _bland(stack, bases, m, n + m, 0)
    _check_phase1(bounded)
    residual = max(0.0, -T[m, -1])
    if residual <= HULL_TOL:
        # zero the artificial mass phase 1 left (at most HULL_TOL), so driving
        # leftover artificials out where a real pivot exists keeps x >= 0;
        # rows that admit none are redundant and stay inert
        leftover = np.flatnonzero(basis >= n)
        T[leftover, -1] = 0.0
        for i in leftover:
            cols = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_EPS)
            if cols.size:
                _pivot(stack, bases, np.array([i]), cols[:1])
                pivots += 1
        (bounded,), pivots = _bland(stack, bases, m + 1, n, pivots)
    x = np.zeros(n)
    rows = np.flatnonzero(basis < n)
    x[basis[rows]] = T[rows, -1]
    if residual > HULL_TOL:
        return LpResult("infeasible", x, np.inf, residual, pivots)
    if not bounded:
        return LpResult("unbounded", x, -np.inf, residual, pivots)
    return LpResult("optimal", x, float(c @ x), residual, pivots)


def _hull_system(points):
    """A with A @ mu = [target; 1] for mu @ points = target, sum mu = 1."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.vstack([points.T, np.ones((1, len(points)))])


def hull_membership(points, target):
    """Is `target` a convex combination of the rows of `points`?

    Decided by phase-1 feasibility of {mu >= 0, sum mu = 1, mu @ points = target};
    returns (member, mu, residual) with residual the leftover infeasibility.
    """
    A = _hull_system(points)
    b = np.concatenate([np.asarray(target, dtype=float), [1.0]])
    res = solve_lp(np.zeros(A.shape[1]), A, b)
    mu = res.x
    if res.status == "optimal":  # sum(mu) = 1 within HULL_TOL, so the sum is > 0
        mu = np.clip(mu, 0.0, None)
        mu = mu / mu.sum()
    return res.status == "optimal", mu, res.residual


def hull_witness(lam, points) -> bool:
    """Do weights lam on the rows of points put 0 in their hull: lam >= 0 and
    sum_B |lam @ points_B| + |sum lam - 1| <= HULL_TOL, the residual the
    simplex's phase 1 would leave at lam?"""
    residual = np.abs(lam @ points).sum() + abs(lam.sum() - 1.0)
    return bool(np.all(lam >= 0.0) and residual <= HULL_TOL)


def column_certifies(b, fit):
    """Is the phase-1 mass the hull LP for b = [p; 1] leaves at the largest
    theta with theta * fit <= b, fit a column [g_k; 1], at most HULL_TOL? It
    bounds the phase-1 optimum, so True means "member"; a NaN (fit == 0)
    certifies nothing. A ratio that overflows (a subnormal weight in fit) is
    +inf, never the minimum: the last row's ratio is 1. The last axis runs
    over the LP's rows; the rest broadcast."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = (b / fit).min(axis=-1)
        return b.sum(axis=-1) - theta * fit.sum(axis=-1) <= HULL_TOL


def first_outside(points, targets):
    """(index, residual) of the first nonnegative target outside the hull of
    the rows of points, by hull_membership's verdict and residual bit for bit
    (raising where it would before that), or None. The first target's LP runs
    alone, before anything else is built: on an unstable set it is most often
    the outsider. The rest run in order, bitwise repeats (of the first too)
    sharing an LP, in stacks of at most BATCH_CELLS cells, up to the first
    stack holding an outsider. With no targets it builds nothing."""
    if len(targets) == 0:
        return None
    A = _hull_system(points)
    m, n = A.shape
    targets = np.ascontiguousarray(targets, dtype=float)

    def stacks():
        yield np.zeros(1, dtype=np.intp)  # the first target, alone
        keys = targets.view(np.dtype((np.void, targets.itemsize * targets.shape[1]))).ravel()
        rest = np.sort(np.unique(keys, return_index=True)[1])[1:]  # [0] is target 0
        step = max(1, BATCH_CELLS // ((m + 1) * (n + m + 1)))
        yield from (rest[start : start + step] for start in range(0, len(rest), step))

    for rows in stacks():
        T, basis = _tableaux(A, np.hstack([targets[rows], np.ones((len(rows), 1))]))
        bounded, _ = _bland(T, basis, m, n + m, 0)
        residual = np.maximum(0.0, -T[:, m, -1])
        stops = np.flatnonzero(~bounded | (residual > HULL_TOL))
        if stops.size:
            _check_phase1(bounded[stops[0]])
            return int(rows[stops[0]]), float(residual[stops[0]])
    return None


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
