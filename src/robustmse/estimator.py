"""Worst-case mean square estimation over a finite-generator measure set.

solve_mmse minimizes F(eta) = max_k E_{g_k}[(xi - eta)^2] over variables
measurable w.r.t. a partition, by maximizing the concave dual

    phi(lam) = E_{P_lam}[(xi - E_{P_lam}[xi|C])^2],   P_lam = sum_k lam_k g_k,

over the generator simplex. phi is an infimum of functions linear in lam, so
it is concave; its supergradient at lam is the vector r with
r_k = E_{g_k}[(xi - eta_lam)^2] where eta_lam = E_{P_lam}[xi|C] is frozen.
The quantity max_k r_k - lam @ r is simultaneously the Frank-Wolfe gap of the
dual and the primal-dual saddle gap, which makes every iterate auditable.

The dual is solved by simplicial decomposition (fully-corrective Frank-Wolfe;
Holloway 1974, Lacoste-Julien & Jaggi 2015): keep a small set of active
generators, add the one with the largest r_k, and re-maximize phi over their
hull by Newton steps on the face, dropping generators whose weight reaches
zero. By Caratheodory the optimal mixture needs at most one generator more
than there are blocks, and the P_hat returned for a non-measurable xi has no
more (a measurable xi is its own estimator, with the uniform mixture).

The remaining operations certify or characterize a candidate estimator:
saddle verification, kernel membership and interval, the product-form
optimality equation, and the penalized problem whose solution is the upper
conditional envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GuardRefusalError, PropernessError, ZeroMassBlockError
from .measures import (
    MeasureSet,
    MixtureWeights,
    conditional_expectation,
    expectation,
    is_proper,
    mix,
)
from .simplexlp import box_epigraph_min, hull_membership, solve_lp
from .spaces import PartitionAlgebra, RandomVariable, check_same_space, is_measurable
from .sublinear import ess_inf_conditional, ess_sup_conditional, rho

SOLVER_SADDLE = "saddle_iteration"
SOLVER_BRUTE = "brute_force"

_FACE_STEPS = 50  # Newton steps and drops per face; quadratic convergence needs few
_LINE_STEPS = 30  # step halvings before a face counts as solved
_VANISH = 1e-15  # a weight this small is rounding residue of a dropped generator


@dataclass(frozen=True)
class SolverConfig:
    """tol bounds the saddle gap relative to 1 + alpha; max_iter caps the
    generator additions of the dual solve."""

    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class EstimatorResult:
    eta_hat: RandomVariable
    p_hat: MixtureWeights
    alpha: float
    saddle_gap: float
    iterations: int
    solver: str
    converged: bool = True
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Certificate:
    max_over_P: float
    value_at_saddle: float
    min_over_eta: float
    passed: bool


class _Quadratics:
    """Per-generator, per-block moment tables for F and the dual."""

    def __init__(self, ms: MeasureSet, xi: RandomVariable, c: PartitionAlgebra):
        check_same_space(ms, xi, c)
        W = ms.weights_matrix
        x = xi.values
        blocks = [list(b) for b in c.blocks]
        self.mass = np.stack([W[:, b].sum(axis=1) for b in blocks], axis=1)
        self.first = np.stack([W[:, b] @ x[b] for b in blocks], axis=1)
        self.second = np.stack([W[:, b] @ (x[b] ** 2) for b in blocks], axis=1)
        self.second_total = self.second.sum(axis=1)
        self.num_gen, self.num_blocks = self.mass.shape
        if np.any(self.mass.sum(axis=0) <= 0.0):
            j = int(np.argmax(self.mass.sum(axis=0) <= 0.0))
            raise ZeroMassBlockError(c.blocks[j])
        # conditional mean under the uniform mixture; fills blocks a boundary
        # mixture leaves uncharged
        self.reference_cond = self.first.mean(axis=0) / self.mass.mean(axis=0)

    def eta_of(self, lam: np.ndarray, rows=slice(None)) -> np.ndarray:
        """E_{P_lam}[xi | C] per block, lam weighing the generators in rows."""
        d = lam @ self.mass[rows]
        nu = lam @ self.first[rows]
        eta = self.reference_cond.copy()
        live = d > 0.0
        eta[live] = nu[live] / d[live]
        return eta

    def residuals(self, eta: np.ndarray, rows=slice(None)) -> np.ndarray:
        """r_k = E_{g_k}[(xi - eta)^2] for a blockwise-constant eta."""
        return (
            self.second_total[rows]
            - 2.0 * (self.first[rows] @ eta)
            + self.mass[rows] @ (eta ** 2)
        )

    def centered(self, eta: np.ndarray, rows=slice(None)) -> np.ndarray:
        """u[k, B] = E_{g_k}[(xi - eta) 1_B]."""
        return self.first[rows] - eta[None, :] * self.mass[rows]


def _face_ascent(quad, s, w, shift):
    """Maximize phi over the hull of generators s, starting from weights w.

    Newton steps on the face solve the KKT system of the quadratic model with
    the Hessian -2 sum_B u_B u_B^T / d_B shifted by -shift*I. Flat directions
    (a block no active generator informs, affinely dependent generators) then
    still give a finite step; the ratio test clips it where a weight reaches
    zero and that generator leaves the face. Near the optimum the gain in phi
    falls below rounding while the face gap max_s r - phi still shrinks, so a
    step is accepted when it does either. Returns the surviving generators
    and their weights, at most one more than the charged blocks.
    """

    def state(s, w):
        eta = quad.eta_of(w, s)
        r = quad.residuals(eta, s)
        return eta, r, float(w @ r)

    eta, r, phi = state(s, w)
    # records of phi and of the gap: a step must beat one of them, so
    # rounding-level steps cannot cycle
    top_phi, low_gap = phi, math.inf
    for _ in range(_FACE_STEPS):
        gap = float(np.max(r)) - phi
        low_gap = min(low_gap, gap)
        if len(s) == 1 or gap <= 0.0:
            break
        n = len(s)
        d = w @ quad.mass[s]
        live = d > 0.0
        u = quad.centered(eta, s)[:, live]
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = -2.0 * (u / d[live]) @ u.T - shift * np.eye(n)
        kkt[n, n] = 0.0
        dw = np.linalg.solve(kkt, np.append(-r, 0.0))[:n]
        # a weight rounding left at ~0 blocks every step that lowers it;
        # drop it without stepping
        stuck = (w <= _VANISH) & (dw < 0.0)
        if np.any(stuck):
            s, w = s[~stuck], w[~stuck] / w[~stuck].sum()
            eta, r, phi = state(s, w)
            continue
        down = np.flatnonzero(dw < 0.0)
        ratios = w[down] / -dw[down]
        t = t_max = min(1.0, float(np.min(ratios))) if len(down) else 1.0
        for _ in range(_LINE_STEPS):
            cand = np.clip(w + t * dw, 0.0, None)
            if t == t_max < 1.0:
                cand[down[int(np.argmin(ratios))]] = 0.0
            cand /= cand.sum()
            eta_c, r_c, phi_c = state(s, cand)
            if phi_c > top_phi or float(np.max(r_c)) - phi_c < low_gap:
                break
            t *= 0.5
        else:
            break
        on = cand > 0.0
        s, w, eta, r, phi = s[on], cand[on], eta_c, r_c[on], phi_c
        top_phi = max(top_phi, phi)
    # Caratheodory: beyond one more generator than charged blocks, some
    # direction v with v @ u = 0 and sum(v) = 0 moves no conditional mean,
    # so eta and r stay put; follow it (uphill in phi) until a weight is 0
    while True:
        live = w @ quad.mass[s] > 0.0
        m = np.vstack([quad.centered(eta, s)[:, live].T, np.ones(len(s))])
        if len(s) <= len(m):
            return s, w
        v = np.linalg.svd(m)[2][-1]
        if v @ r < 0.0:
            v = -v
        down = np.flatnonzero(v < 0.0)
        j = down[int(np.argmin(w[down] / -v[down]))]
        w = np.clip(w + (w[j] / -v[j]) * v, 0.0, None)
        w[j] = 0.0
        on = w > 0.0
        s, w = s[on], w[on] / w[on].sum()
        eta, r, phi = state(s, w)


def _simplicial_decomposition(quad, lam0, max_iter):
    """Fully-corrective Frank-Wolfe on the dual: add the generator argmax r,
    re-maximize phi over the hull of the active generators, repeat.

    Starts from the single generator argmax r at lam0. Stops when the saddle
    gap max r - phi closes or when an addition improves neither phi nor the
    gap. Returns the mixture and the number of additions.
    """

    def evaluate(s, w):
        r = quad.residuals(quad.eta_of(w, s))
        phi = float(w @ r[s])
        return r, phi, float(np.max(r)) - phi

    shift = 1e-12 * float(np.max(np.abs(quad.second_total)))
    s = np.array([int(np.argmax(quad.residuals(quad.eta_of(lam0))))])
    w = np.ones(1)
    r, phi, gap = evaluate(s, w)
    top_phi, low_gap = phi, gap
    iters = 0
    while iters < max_iter and gap > 0.0:
        iters += 1
        k = int(np.argmax(r))
        s_new, w_new = (s, w) if k in s else (np.append(s, k), np.append(w, 0.0))
        s_new, w_new = _face_ascent(quad, s_new, w_new, shift)
        r_new, phi_new, gap_new = evaluate(s_new, w_new)
        if not (phi_new > top_phi or gap_new < low_gap):
            break
        s, w, r, phi, gap = s_new, w_new, r_new, phi_new, gap_new
        top_phi, low_gap = max(top_phi, phi), min(low_gap, gap)
    lam = np.zeros(quad.num_gen)
    lam[s] = w
    return lam, iters


def _coordinate_refine_dead_blocks(quad, lam, eta, bound):
    """Exact 1-D minimax over blocks the chosen mixture leaves uncharged."""
    d = lam @ quad.mass
    dead = np.flatnonzero(d <= 0.0)
    if len(dead) == 0:
        return eta
    eta = eta.copy()
    for j in dead:
        lo, hi = -bound, bound
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            e1, e2 = eta.copy(), eta.copy()
            e1[j], e2[j] = m1, m2
            if np.max(quad.residuals(e1)) <= np.max(quad.residuals(e2)):
                hi = m2
            else:
                lo = m1
        eta[j] = 0.5 * (lo + hi)
    return eta


def solve_mmse(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    cfg: SolverConfig | None = None,
    init_weights=None,
) -> EstimatorResult:
    """Minimize the worst-case mean square error over C-measurable estimators.

    Maximize the dual phi by simplicial decomposition, starting from the
    generator with the largest residual at init_weights (uniform by default),
    and read the estimator off the optimal mixture as
    eta_hat = E_{P_hat}[xi | C]. Each iteration adds one generator and
    re-solves on the hull of the active ones; cfg.max_iter caps these
    additions, and EstimatorResult.iterations counts them. The run has
    converged when the saddle gap is at most cfg.tol * (1 + alpha), the same
    relative test verify_saddle applies, so the status does not depend on the
    units of xi. Nonconvergence is reported as an explicit status
    (converged=False, last iterate and gap retained), never as a silent best
    effort.
    """
    cfg = cfg or SolverConfig()
    quad = _Quadratics(ms, xi, c)
    warn: list[str] = []
    if not is_proper(ms):
        warn.append("measure set is not proper; solution may be non-unique")

    if is_measurable(xi, c):
        lam = np.full(len(ms), 1.0 / len(ms))
        return EstimatorResult(
            eta_hat=xi,
            p_hat=MixtureWeights(lam),
            alpha=0.0,
            saddle_gap=0.0,
            iterations=0,
            solver=SOLVER_SADDLE,
            converged=True,
            warnings=tuple(warn),
        )

    if init_weights is None:
        lam0 = np.full(len(ms), 1.0 / len(ms))
    else:
        lam0 = np.asarray(init_weights, dtype=float)
        if lam0.shape != (len(ms),) or np.any(lam0 < 0) or lam0.sum() <= 0:
            raise ArgumentError("init_weights must be nonnegative with positive sum")
        lam0 = lam0 / lam0.sum()

    lam, iters = _simplicial_decomposition(quad, lam0, cfg.max_iter)

    eta = quad.eta_of(lam)
    eta = _coordinate_refine_dead_blocks(quad, lam, eta, xi.bound)
    r = quad.residuals(eta)
    alpha = float(np.max(r))
    # the mathematical gap is nonnegative; the dot product may round a hair
    # above the max when the residuals are all but equal
    gap = max(0.0, alpha - float(lam @ r))
    converged = gap <= cfg.tol * (1.0 + alpha)
    if not converged:
        warn.append(
            f"saddle iteration stopped at gap {gap:.3e} > tol {cfg.tol:.1e} "
            f"after {iters} iterations"
        )

    return EstimatorResult(
        eta_hat=c.broadcast(eta),
        p_hat=MixtureWeights(lam),
        alpha=alpha,
        saddle_gap=gap,
        iterations=iters,
        solver=SOLVER_SADDLE,
        converged=converged,
        warnings=tuple(warn),
    )


def _line_min_max_quadratics(quad, eta, d, t_lo, t_hi):
    """Exact minimum over t in [t_lo, t_hi] of max_k r_k(eta + t*d).

    Each r_k restricted to the line is a quadratic; the pointwise max attains
    its minimum at a vertex of one piece, a crossing of two pieces, or an
    endpoint, so evaluating that finite candidate list is exact.
    """
    a = quad.mass @ (d ** 2)
    b = -2.0 * (quad.centered(eta) @ d)
    c = quad.residuals(eta)
    cands = [t_lo, t_hi]
    for k in range(len(a)):
        if a[k] > 0:
            cands.append(-b[k] / (2.0 * a[k]))
        for l in range(k + 1, len(a)):
            da, db, dc = a[k] - a[l], b[k] - b[l], c[k] - c[l]
            if abs(da) > 1e-300:
                disc = db * db - 4.0 * da * dc
                if disc >= 0.0:
                    root = math.sqrt(disc)
                    cands.append((-db + root) / (2.0 * da))
                    cands.append((-db - root) / (2.0 * da))
            elif abs(db) > 1e-300:
                cands.append(-dc / db)
    ts = np.clip(np.array(cands), t_lo, t_hi)
    vals = np.max(a[None, :] * ts[:, None] ** 2 + b[None, :] * ts[:, None] + c[None, :], axis=1)
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


def _min_norm_in_hull(G):
    """Min-norm point of conv(rows of G) by support enumeration (few rows).

    For each support the equality-constrained minimizer of |mu @ G|^2 with
    sum(mu) = 1 solves the bordered KKT system; supports whose solution
    leaves the simplex are discarded, and the best feasible one wins.
    """
    k = G.shape[0]
    best_g, best_n = None, np.inf
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        a = len(idx)
        Gs = G[idx]
        kkt = np.zeros((a + 1, a + 1))
        kkt[:a, :a] = Gs @ Gs.T
        kkt[:a, a] = 1.0
        kkt[a, :a] = 1.0
        rhs = np.zeros(a + 1)
        rhs[a] = 1.0
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        mu = sol[:a]
        if np.any(mu < -1e-10) or abs(mu.sum() - 1.0) > 1e-8:
            continue
        g = np.clip(mu, 0.0, None) @ Gs / np.clip(mu, 0.0, None).sum()
        n = float(g @ g)
        if n < best_n:
            best_g, best_n = g, n
    return best_g if best_g is not None else G.mean(axis=0)


def _min_max_descent(quad, eta, box, max_steps=300):
    """Minimize max_k r_k by steepest descent on the min-norm subgradient with
    exact line search; follows kinked valleys an axis-aligned grid cannot."""
    eta = np.asarray(eta, dtype=float).copy()
    r = quad.residuals(eta)
    val = float(np.max(r))
    scale = 1.0 + abs(val)
    for _ in range(max_steps):
        improved = False
        for act_tol in (1e-7, 1e-9, 1e-12):
            active = np.flatnonzero(r >= val - act_tol * scale)
            grads = 2.0 * (eta[None, :] * quad.mass[active] - quad.first[active])
            d = -_min_norm_in_hull(grads)
            norm = float(np.max(np.abs(d)))
            if norm <= 1e-16 * scale:
                continue
            d = d / norm
            t_hi = np.inf
            t_lo = -np.inf
            for j in range(quad.num_blocks):
                if d[j] > 0:
                    t_hi = min(t_hi, (box - eta[j]) / d[j])
                    t_lo = max(t_lo, (-box - eta[j]) / d[j])
                elif d[j] < 0:
                    t_hi = min(t_hi, (-box - eta[j]) / d[j])
                    t_lo = max(t_lo, (box - eta[j]) / d[j])
            if not t_hi > 0:
                continue
            t, new_val = _line_min_max_quadratics(quad, eta, d, max(t_lo, 0.0), t_hi)
            if new_val < val - 1e-18 * scale and t != 0.0:
                eta = eta + t * d
                r = quad.residuals(eta)
                val = float(np.max(r))
                improved = True
                break
        if not improved:
            break
    return eta, val


MAX_BRUTE_BLOCKS = 4


def brute_force_mmse(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    grid_step: float = 1e-3,
) -> EstimatorResult:
    """Independent grid oracle for solve_mmse on instances with few blocks.

    F is a maximum of convex quadratics, hence convex with a single basin, so
    the full-box grid is walked coarse-to-fine (a generous window around the
    incumbent is re-gridded at each halving) down to grid_step, followed by
    one coordinate-descent pass at grid_step/100. No dual information is used;
    the worst-case mixture is recovered afterwards by a small LP.
    """
    if grid_step <= 0:
        raise ArgumentError("grid_step must be positive")
    if c.num_blocks > MAX_BRUTE_BLOCKS:
        raise GuardRefusalError(
            f"brute force limited to {MAX_BRUTE_BLOCKS} blocks, got {c.num_blocks}"
        )
    quad = _Quadratics(ms, xi, c)
    m = quad.num_blocks
    M = max(xi.bound, grid_step)

    def value(points):
        # points: (P, m) -> worst-case mean square error per point
        r = (
            quad.second_total[None, :]
            - 2.0 * points @ quad.first.T
            + (points ** 2) @ quad.mass.T
        )
        return r.max(axis=1)

    def axis(lo, hi, h):
        lo = max(lo, -M)
        hi = min(hi, M)
        j0 = math.ceil((lo + M) / h - 1e-12)
        j1 = math.floor((hi + M) / h + 1e-12)
        return -M + h * np.arange(j0, j1 + 1)

    def sweep(axes, chunk=1 << 20):
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        best_i, best_v = -1, np.inf
        for lo in range(0, len(pts), chunk):
            vals = value(pts[lo : lo + chunk])
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_i, best_v = lo + i, float(vals[i])
        return pts[best_i], best_v

    # walk the single basin coarse-to-fine; at each resolution, re-center
    # ("hop") until the window argmin is interior, so the search can travel
    # down a narrow valley arbitrarily far before the window shrinks. The
    # walk continues below grid_step to the refinement resolution: near-flat
    # kinked valleys leave the best grid_step-lattice point several cells
    # from the minimizer, and a single axis-aligned pass cannot recover that,
    # whereas pattern search at the fine scale tracks the minimizer itself.
    margin = 6
    fine = grid_step / 100.0

    def track(h_from, h_to, start, start_val):
        best, best_val = start, start_val
        h = h_from
        while h > h_to:
            h = max(h / 2.0, h_to)
            for _ in range(200):
                width = 2 * margin * h
                axes = [axis(best[j] - width, best[j] + width, h) for j in range(m)]
                cand, cand_val = sweep(axes)
                hit_edge = any(
                    abs(cand[j] - best[j]) > width - h / 2.0
                    and -M + h / 2.0 < cand[j] < M - h / 2.0
                    for j in range(m)
                )
                if cand_val < best_val:
                    best, best_val = cand, cand_val
                else:
                    break
                if not hit_edge:
                    break
        return best, best_val

    h0 = max(2.0 * M / 20.0, grid_step)
    best, best_val = sweep([axis(-M, M, h0)] * m)
    best, best_val = track(h0, grid_step, best, best_val)
    best, best_val = _min_max_descent(quad, best, M)
    for j in range(m):
        cand = np.arange(best[j] - grid_step, best[j] + grid_step + fine / 2, fine)
        cand = np.clip(cand, -M, M)
        pts = np.repeat(best[None, :], len(cand), axis=0)
        pts[:, j] = cand
        vals = value(pts)
        i = int(np.argmin(vals))
        best, best_val = pts[i], float(vals[i])

    r = quad.residuals(best)
    lam = _recover_mixture(quad, best, r)
    alpha = float(np.max(r))
    return EstimatorResult(
        eta_hat=c.broadcast(best),
        p_hat=MixtureWeights(lam),
        alpha=alpha,
        saddle_gap=alpha - float(lam @ r),
        iterations=0,
        solver=SOLVER_BRUTE,
        converged=True,
        warnings=(),
    )


def _recover_mixture(quad, eta, r):
    """Best certificate mixture at a fixed eta: maximize lam @ r over simplex
    weights whose mixture (nearly) reproduces eta as its conditional mean.

    A grid point satisfies the mean equations only approximately, so they are
    imposed through heavily penalized elastic slacks rather than hard
    equalities; the LP is then always feasible and bounded.
    """
    u = quad.centered(eta)  # (K, m); want lam @ u = 0
    K, m = quad.num_gen, quad.num_blocks
    # variables: lam (K), slack+ (m), slack- (m)
    A = np.zeros((m + 1, K + 2 * m))
    A[:m, :K] = u.T
    A[:m, K : K + m] = np.eye(m)
    A[:m, K + m :] = -np.eye(m)
    A[m, :K] = 1.0
    b = np.concatenate([np.zeros(m), [1.0]])
    scale = 1.0 + float(np.max(np.abs(r)))
    c = np.concatenate([-r / scale, np.full(2 * m, 1e6)])
    res = solve_lp(c, A, b)
    lam = np.clip(res.x[:K], 0.0, None)
    if res.status != "optimal" or lam.sum() <= 0:
        lam = np.zeros(K)
        lam[int(np.argmax(r))] = 1.0
        return lam
    return lam / lam.sum()


def verify_saddle(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    result: EstimatorResult,
    cfg: SolverConfig | None = None,
) -> Certificate:
    """Audit the two saddle inequalities at (eta_hat, P_hat).

    max_over_P <= value_at_saddle certifies P_hat is worst-case at eta_hat;
    value_at_saddle <= min_over_eta certifies eta_hat minimizes under P_hat
    (the exact inner minimum is the conditional expectation). Tolerance scales
    with 1 + alpha.
    """
    cfg = cfg or SolverConfig()
    eta = result.eta_hat
    sq = (xi - eta) * (xi - eta)
    max_over_p = rho(ms, sq).value
    p_hat = mix(ms, result.p_hat)
    value_at_saddle = expectation(p_hat, sq)
    inner = conditional_expectation(p_hat, xi, c)
    min_over_eta = expectation(p_hat, (xi - inner) * (xi - inner))
    tol = cfg.tol * (1.0 + abs(result.alpha))
    passed = (max_over_p <= value_at_saddle + tol) and (
        value_at_saddle <= min_over_eta + tol
    )
    return Certificate(
        max_over_P=max_over_p,
        value_at_saddle=value_at_saddle,
        min_over_eta=min_over_eta,
        passed=passed,
    )


def kernel_member(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_tilde: RandomVariable,
    tol: float = 1e-9,
) -> bool:
    """Does inf over C-measurable eta of rho[(xi - eta_tilde) eta] equal zero?

    The inner expectations are linear in eta with coefficient vectors
    u_k[B] = E_{g_k}[(xi - eta_tilde) 1_B]; by positive homogeneity the infimum
    is 0 exactly when 0 lies in the convex hull of the u_k and -infinity
    otherwise, so membership is one linear feasibility problem decided by the
    in-repo simplex.
    """
    if not is_measurable(eta_tilde, c):
        raise ArgumentError("eta_tilde must be measurable w.r.t. the partition")
    quad = _Quadratics(ms, xi, c)
    eta = np.array([eta_tilde.values[b[0]] for b in c.blocks])
    u = quad.centered(eta)
    member, _, _ = hull_membership(u, np.zeros(quad.num_blocks), tol)
    return member


@dataclass(frozen=True)
class KernelInterval:
    lower: RandomVariable
    upper: RandomVariable
    exact: bool | None  # None: no filtration declared, outer description only


def kernel_interval(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    filtration=None,
) -> KernelInterval:
    """The band between the conditional envelopes.

    Equals the kernel exactly when the measure set is stable along a declared
    filtration containing c; otherwise it is only an outer description and
    exact is None (or False when stability was checked and failed).
    """
    lower = ess_inf_conditional(ms, xi, c)
    upper = ess_sup_conditional(ms, xi, c)
    exact = None
    if filtration is not None:
        from .stability import is_stable  # local import; stability builds on this module

        if c not in filtration.levels:
            raise ArgumentError("partition is not a level of the declared filtration")
        exact = is_stable(ms, filtration).stable
    return KernelInterval(lower=lower, upper=upper, exact=exact)


@dataclass(frozen=True)
class NsReport:
    inf_value: float  # -inf when the inner problem is unbounded below
    rho_sq: float
    holds: bool


def ns_condition(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_hat: RandomVariable,
    tol: float = 1e-6,
    hull_tol: float = 1e-9,
) -> NsReport:
    """Check inf over C-measurable eta of rho[(xi - eta_hat)(xi - eta)] == rho(xi - eta_hat)^2.

    The infimum is a piecewise-linear convex program solved in epigraph form
    over the box |eta| <= bound(xi); the 0-or-minus-infinity dichotomy of the
    unrestricted problem is decided first by a hull test on the linear
    coefficients.
    """
    if not is_measurable(eta_hat, c):
        raise ArgumentError("eta_hat must be measurable w.r.t. the partition")
    quad = _Quadratics(ms, xi, c)
    eta = np.array([eta_hat.values[b[0]] for b in c.blocks])
    b_vec = quad.centered(eta)  # E_{g_k}[(xi - eta_hat) 1_B]
    a_vec = quad.second_total - eta @ quad.first.T  # E_{g_k}[(xi - eta_hat) xi]
    resid = xi - eta_hat
    rho_sq = rho(ms, resid * resid).value

    member, _, _ = hull_membership(b_vec, np.zeros(quad.num_blocks), hull_tol)
    if not member:
        return NsReport(inf_value=-math.inf, rho_sq=rho_sq, holds=False)
    inf_value, _ = box_epigraph_min(a_vec, b_vec, xi.bound)
    return NsReport(
        inf_value=inf_value, rho_sq=rho_sq, holds=abs(inf_value - rho_sq) <= tol
    )


@dataclass(frozen=True)
class OptimalityEntry:
    index: int
    margin: float
    ok: bool


@dataclass(frozen=True)
class OptimalityReport:
    entries: tuple[OptimalityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def optimality_ineq(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_hat: RandomVariable,
    eta_list,
    tol: float = 1e-10,
) -> OptimalityReport:
    """Margins of rho[(xi - eta)(xi - eta_hat)] >= rho(xi - eta_hat)^2 per eta."""
    if not is_measurable(eta_hat, c):
        raise ArgumentError("eta_hat must be measurable w.r.t. the partition")
    resid = xi - eta_hat
    base = rho(ms, resid * resid).value
    entries = []
    for i, eta in enumerate(eta_list):
        if not is_measurable(eta, c):
            raise ArgumentError(f"eta_list[{i}] is not measurable w.r.t. the partition")
        lhs = rho(ms, (xi - eta) * resid).value
        margin = lhs - base
        entries.append(OptimalityEntry(index=i, margin=margin, ok=margin >= -tol))
    return OptimalityReport(entries=tuple(entries))


def _strictly_comparable(ms: MeasureSet) -> bool:
    # on a finite hull: every generator strictly positive at every point
    return bool(np.all(ms.weights_matrix > 0.0))


def penalized_value(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta: RandomVariable,
    tol: float = 1e-9,
) -> float:
    """sup over nonnegative C-measurable penalties of rho[(xi-eta)^2 + penalty*(xi-eta)].

    Finite exactly when eta dominates the upper conditional envelope blockwise
    (the penalty direction is then nonpositive and zero is optimal, giving
    rho[(xi-eta)^2]); otherwise unbounded: mass on a violating block grows the
    value past any real number.
    """
    if not (is_proper(ms) and _strictly_comparable(ms)):
        raise PropernessError(
            "penalized problem requires strictly positive (strictly comparable) generators"
        )
    if not is_measurable(eta, c):
        raise ArgumentError("eta must be measurable w.r.t. the partition")
    upper = ess_sup_conditional(ms, xi, c)
    eta_blocks = np.array([eta.values[b[0]] for b in c.blocks])
    upper_blocks = np.array([upper.values[b[0]] for b in c.blocks])
    if np.all(eta_blocks >= upper_blocks - tol):
        diff = xi - eta
        return rho(ms, diff * diff).value
    return math.inf


@dataclass(frozen=True)
class MinimaxGapReport:
    minimax: float
    maximin: float
    gap: float
    ess_sup_is_mmse: bool


def minimax_gap(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    cfg: SolverConfig | None = None,
    tol: float = 1e-8,
) -> MinimaxGapReport:
    """Penalized inf-sup at the upper envelope versus sup-inf (the MMSE value).

    The gap vanishes exactly when the upper conditional envelope solves the
    mean square problem; it is zero for every single-generator set and
    positive whenever worst-case conditioning and estimation disagree.
    """
    upper = ess_sup_conditional(ms, xi, c)
    minimax = penalized_value(ms, xi, c, upper)
    maximin = solve_mmse(ms, xi, c, cfg).alpha
    gap = minimax - maximin
    return MinimaxGapReport(
        minimax=minimax,
        maximin=maximin,
        gap=gap,
        ess_sup_is_mmse=gap <= tol,
    )
