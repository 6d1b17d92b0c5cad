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
saddle verification, kernel membership, the product-form optimality
equation, and the penalized problem whose solution is the upper conditional
envelope. The band between the conditional envelopes, which equals the kernel
on a stable set, is stability.kernel_interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ArgumentError,
    GuardRefusalError,
    PropernessError,
    ZeroMassBlockError,
)
from .measures import (
    MeasureSet,
    MixtureWeights,
    is_proper,
    mix,
)
from .simplexlp import HULL_TOL, hull_membership
from .spaces import VALUE_TOL, PartitionAlgebra, RandomVariable, check_same_space, is_measurable
from .sublinear import ess_sup_conditional, rho

if TYPE_CHECKING:
    from .gexp import TreeModel

SOLVER_SADDLE = "saddle_iteration"
SOLVER_BRUTE = "brute_force"

_FACE_STEPS = 50  # Newton steps and drops per face; quadratic convergence needs few
_LINE_STEPS = 30  # step halvings before a face counts as solved
_SHIFT = 1e-12  # Hessian shift of the face steps, in units of the residual scale
_EPS = sys.float_info.epsilon  # of binary64


@dataclass(frozen=True)
class SolverConfig:
    """tol bounds the saddle gap relative to 1 + alpha; max_iter caps the
    generator additions of the dual solve."""

    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class SolveTrace:
    """What one dual solve did, counted deterministically: the same instance
    gives the same counts. The library reports them; result files do not."""

    additions: int = 0  # generators added; EstimatorResult.iterations
    newton_steps: int = 0  # face Newton steps that reached the line search
    line_evals: int = 0  # evaluations of phi in those line searches
    stuck_drops: int = 0  # blocking generators dropped at weight 0, without a line search
    residue_drops: int = 0  # blocking generators dropped at rounding-residue weight
    capped_faces: int = 0  # face ascents that ran all _FACE_STEPS


@dataclass(frozen=True)
class EstimatorResult:
    """eta_hat and its worst-case error alpha = F(eta_hat). From solve_mmse,
    p_hat is the worst-case mixture and saddle_gap the primal-dual gap at
    (eta_hat, p_hat). The oracle, brute_force_mmse, builds no mixture: its
    p_hat is None and its saddle_gap is alpha minus its certified lower bound
    on min F."""

    eta_hat: RandomVariable
    p_hat: MixtureWeights | None
    alpha: float
    saddle_gap: float
    iterations: int
    solver: str
    converged: bool = True
    warnings: tuple[str, ...] = ()
    trace: SolveTrace | None = None  # the dual solver's counts; None from the oracle


@dataclass(frozen=True)
class Certificate:
    max_over_P: float
    value_at_saddle: float
    min_over_eta: float
    passed: bool


class _Pool:
    """The generators the dual solver has added, each with its weight row and
    its rows of block masses and first moments E_g[xi 1_B], the queries it
    puts to the measure set (solve_mmse), and the counts of the solve's work
    (SolveTrace). Residuals are taken over the weight rows at xi - eta:
    expanded second moments cancel once xi has a large offset."""

    def __init__(self, ms: MeasureSet | TreeModel, xi: RandomVariable, c: PartitionAlgebra):
        check_same_space(ms, xi, c)
        self.size = ms.num_generators()  # on a tree, the corner-count guard: p_hat is dense
        self.support, self.rows, mean = ms.support, ms.rows, ms.mean_row()
        self.x, self.unit, self.c = xi.values, xi.unit, c
        mass = c.block_sums(mean)
        if np.any(mass <= 0.0):
            raise ZeroMassBlockError(c.blocks[int(np.argmax(mass <= 0.0))])
        self.reference_cond = c.block_sums(mean * self.x) / mass
        self.ids: list[int] = []  # generator of each pooled row
        self._index: dict[int, int] = {}
        self.weights = np.empty((0, len(self.x)))
        self.mass = self.first = np.empty((0, c.num_blocks))
        self.counts = dict.fromkeys((f.name for f in fields(SolveTrace)), 0)

    def add(self, k: int) -> int:
        """The pool row of generator k, pooled on first use."""
        row = self._index.get(k)
        if row is None:
            row = self._index[k] = len(self.ids)
            self.ids.append(k)
            w = self.rows([k])
            self.weights = np.concatenate([self.weights, w])
            self.mass = np.concatenate([self.mass, self.c.block_sums(w)])
            self.first = np.concatenate([self.first, self.c.block_sums(w * self.x)])
        return row

    def cond(self, mass: np.ndarray, first: np.ndarray) -> np.ndarray:
        """first / mass per block; reference_cond where mass is 0."""
        return np.divide(first, mass, out=self.reference_cond.copy(), where=mass > 0.0)

    def eta_of(self, lam: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """E_{P_lam}[xi | C] per block, lam weighing the pooled rows in rows."""
        return self.cond(lam @ self.mass[rows], lam @ self.first[rows])

    def worst(self, eta: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(residuals of the pooled rows, generator k with the largest r_k, r_k)."""
        d = self.x - eta[self.c.labels]
        r = self.weights @ (d * d)
        top, k = self.support(d * d)
        row = self._index.get(k)
        # a generator already in the pool is valued from its pooled row, like
        # the residuals it is compared with
        return r, k, top if row is None else float(r[row])


def _closed(gap: float, n: int, top: float) -> bool:
    """Whether a gap max r - phi is within the rounding of phi = w @ r, a sum
    of n rounded products each at most top = max r."""
    return gap <= n * _EPS * top


def _face_ascent(pool, s, w, scale):
    """Maximize phi over the hull of generators s, starting from weights w.

    Newton steps on the face solve the KKT system of the quadratic model with
    the Hessian -2 sum_B u_B u_B^T / d_B shifted by -_SHIFT * scale * I,
    divided through by the residual scale, so that the solve sees the same
    numbers in any units of xi. Flat directions (a block no active generator
    informs, affinely dependent generators) then still give a finite step;
    the ratio test clips it where a weight reaches zero and that generator
    leaves the face. The face is solved once its gap max_s r - phi is within
    the rounding of phi (_closed): len(s) * eps * max_s r; a face of one
    generator has w = [1.0] exactly, so its gap is 0. Until then a step is
    accepted when it raises phi or lowers the gap.

    One rule drops a generator whose weight blocks every step: when no step
    along a clipped direction is accepted, the generator that clips it leaves
    the face without a step. A weight of 0 (a generator just added) that the
    step lowers leaves the ratio test no step at all, so no line search runs
    (SolveTrace.stuck_drops); any other such weight is rounding residue of a
    generator that has left, as a Newton step that should zero a weight can
    leave ~1e-15 of it (SolveTrace.residue_drops). Returns the surviving
    generators and their weights, at most one more than the charged blocks.
    """
    x, labels, block_sums, counts = pool.x, pool.c.labels, pool.c.block_sums, pool.counts
    # the face's rows of block masses, first moments and weights, sliced
    # again only when a generator leaves
    mass, first, rows = pool.mass[s], pool.first[s], pool.weights[s]

    def state(w):
        d = w @ mass
        dev = x - pool.cond(d, w @ first)[labels]
        r = rows @ (dev * dev)
        return (d, dev), r, float(w @ r)

    def leave(on):
        nonlocal s, mass, first, rows
        s, mass, first, rows = s[on], mass[on], first[on], rows[on]

    def drop(on, w):
        # the face of the generators in on, w renormalized there and evaluated
        leave(on)
        w = w[on] / w[on].sum()
        return (w, *state(w))

    moments, r, phi = state(w)
    # records of phi and of the gap: a step must beat one of them, so
    # rounding-level steps cannot cycle
    top_phi, low_gap = phi, math.inf
    for _ in range(_FACE_STEPS):
        top = float(np.max(r))
        low_gap = min(low_gap, top - phi)
        if _closed(top - phi, len(s), top):
            break
        n = len(s)
        d, dev = moments
        live = d > 0.0
        u = block_sums(rows * dev)[:, live]
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = -2.0 * (u / d[live]) @ u.T / scale - _SHIFT * np.eye(n)
        kkt[n, n] = 0.0
        dw = np.linalg.solve(kkt, np.append(-r / scale, 0.0))[:n]
        down = np.flatnonzero(dw < 0.0)
        ratios = w[down] / -dw[down]
        t = t_max = min(1.0, float(np.min(ratios))) if len(down) else 1.0
        j = down[int(np.argmin(ratios))] if t_max < 1.0 else None  # the weight that clips
        # t_max = 0: a weight of 0 that the step lowers leaves no step at all
        line_steps = _LINE_STEPS if t_max > 0.0 else 0
        counts["newton_steps"] += line_steps > 0
        for _ in range(line_steps):
            cand = np.clip(w + t * dw, 0.0, None)
            if t == t_max < 1.0:
                cand[j] = 0.0
            cand /= cand.sum()
            counts["line_evals"] += 1
            moments_c, r_c, phi_c = state(cand)
            if phi_c > top_phi or float(np.max(r_c)) - phi_c < low_gap:
                break
            t *= 0.5
        else:
            if t_max == 1.0:
                break
            # nothing along the clipped direction counts: the generator that
            # clips it leaves without a step
            counts["stuck_drops" if w[j] == 0.0 else "residue_drops"] += 1
            w, moments, r, phi = drop(np.arange(n) != j, w)
            continue
        on = cand > 0.0
        leave(on)
        w, moments, r, phi = cand[on], moments_c, r_c[on], phi_c
        if not on.all():
            # a sum without the zero terms can round apart from one with
            # them: the masses of (s, w) as state(w) would give them
            moments = (w @ mass, moments[1])
        top_phi = max(top_phi, phi)
    else:
        counts["capped_faces"] += 1
    # Caratheodory: beyond one more generator than charged blocks, some
    # direction v with v @ u = 0 and sum(v) = 0 moves no conditional mean,
    # so eta and r stay put; follow it (uphill in phi) until a weight is 0.
    # u comes in units of R, like the row of ones, whatever the units of xi.
    while True:
        d, dev = moments
        live = d > 0.0
        m = np.vstack([block_sums(rows * dev)[:, live].T / pool.unit, np.ones(len(s))])
        if len(s) <= len(m):
            return s, w
        v = np.linalg.svd(m)[2][-1]
        if v @ r < 0.0:
            v = -v
        down = np.flatnonzero(v < 0.0)
        j = down[int(np.argmin(w[down] / -v[down]))]
        w = np.clip(w + (w[j] / -v[j]) * v, 0.0, None)
        w[j] = 0.0
        w, moments, r, phi = drop(w > 0.0, w)


def _simplicial_decomposition(pool, eta0, max_iter):
    """Fully-corrective Frank-Wolfe on the dual: add the generator argmax r,
    re-maximize phi over the hull of the active generators, repeat.

    Starts from the single generator argmax r at eta0, whose residual fixes
    the scale of the face steps. Stops when the saddle gap max r - phi is
    within the rounding of phi (_closed, with max r over every generator),
    or when an addition improves neither phi nor the gap, or after max_iter
    additions. Returns the active pool rows s, their weights w, and the
    evaluation of that mixture the stop rule read: eta = E_{P_w}[xi | C] per
    block, phi and max r.
    """

    def evaluate(s, w):
        eta = pool.eta_of(w, s)
        r, k, top = pool.worst(eta)
        return eta, float(w @ r[s]), top, k

    _, k, scale = pool.worst(eta0)
    s = np.array([pool.add(k)])
    w = np.ones(1)
    eta, phi, top, k = evaluate(s, w)
    top_phi, low_gap = phi, top - phi
    counts = pool.counts
    while counts["additions"] < max_iter and not _closed(top - phi, len(s), top):
        counts["additions"] += 1
        row = pool.add(k)
        s_new, w_new = (s, w) if row in s else (np.append(s, row), np.append(w, 0.0))
        s_new, w_new = _face_ascent(pool, s_new, w_new, scale)
        eta_new, phi_new, top_new, k_new = evaluate(s_new, w_new)
        if not (phi_new > top_phi or top_new - phi_new < low_gap):
            break
        s, w, eta, phi, top, k = s_new, w_new, eta_new, phi_new, top_new, k_new
        top_phi, low_gap = max(top_phi, phi), min(low_gap, top - phi)
    return s, w, eta, phi, top


def solve_mmse(
    ms: MeasureSet | TreeModel,
    xi: RandomVariable,
    c: PartitionAlgebra,
    cfg: SolverConfig | None = None,
    init_weights=None,
) -> EstimatorResult:
    """Minimize the worst-case mean square error over C-measurable estimators.

    ms is a MeasureSet or a TreeModel, which stands for its corner set
    (tree_measure_set) without enumerating it. The solver keeps a pool of the
    generators it has added (weight row, block masses, first moments) and
    asks the set, through the queries both kinds answer, only for
    num_generators(), support(v) (the largest E_g[v] and the smallest
    generator index reaching it), rows(ks) and mean_row(), the row of the
    uniform mixture of the generators. Residuals come from the pooled rows at
    xi - eta, so the estimator commutes with a shift:
    eta_hat(xi + a) = eta_hat(xi) + a with the same alpha.

    Maximize the dual phi by simplicial decomposition, starting from the
    generator with the largest residual at init_weights (the uniform mixture
    by default; a tree takes no init_weights), and read the estimator off the
    optimal mixture as eta_hat = E_{P_hat}[xi | C]. Each iteration adds one
    generator and re-solves on the hull of the active ones; cfg.max_iter caps
    these additions, and EstimatorResult.iterations counts them. The run has
    converged when the saddle gap is at most cfg.tol * (1 + alpha), the same
    relative test verify_saddle applies, so the status does not depend on the
    units of xi. Nonconvergence is reported as an explicit status
    (converged=False, last iterate and gap retained), never as a silent best
    effort. p_hat has one weight per generator (per corner for a tree).
    EstimatorResult.trace counts the solve's work (SolveTrace).
    """
    cfg = cfg or SolverConfig()
    warn: list[str] = []
    if isinstance(ms, MeasureSet):
        if not is_proper(ms):
            warn.append("measure set is not proper; solution may be non-unique")
    elif init_weights is not None:  # 0 < q < 1 at every node: a tree is proper
        raise ArgumentError("a tree's corner set takes no init_weights")
    pool = _Pool(ms, xi, c)

    if is_measurable(xi, c):
        return EstimatorResult(
            eta_hat=xi, p_hat=MixtureWeights(np.full(pool.size, 1.0 / pool.size)), alpha=0.0,
            saddle_gap=0.0, iterations=0, solver=SOLVER_SADDLE, warnings=tuple(warn),
            trace=SolveTrace(),
        )

    if init_weights is None:
        eta0 = pool.reference_cond
    else:
        lam0 = np.asarray(init_weights, dtype=float)
        if lam0.shape != (len(ms),) or np.any(lam0 < 0) or lam0.sum() <= 0:
            raise ArgumentError("init_weights must be nonnegative with positive sum")
        p0 = (lam0 / lam0.sum()) @ ms.weights_matrix
        eta0 = pool.cond(c.block_sums(p0), c.block_sums(p0 * xi.values))

    # P_hat charges every block of a proper set; on a set that is not, a
    # block it leaves uncharged keeps reference_cond, one of the values that
    # minimize there (eta_hat need not be unique)
    s, w, eta, phi, alpha = _simplicial_decomposition(pool, eta0, cfg.max_iter)
    iters = pool.counts["additions"]
    # the mathematical gap is nonnegative; the dot product may round a hair
    # above the max when the residuals are all but equal
    gap = max(0.0, alpha - phi)
    converged = gap <= cfg.tol * (1.0 + alpha)
    if not converged:
        warn.append(
            f"saddle iteration stopped at gap {gap:.3e} > tol {cfg.tol:.1e} "
            f"after {iters} iterations"
        )
    p_hat = np.zeros(pool.size)
    p_hat[np.take(pool.ids, s)] = w

    return EstimatorResult(
        eta_hat=c.broadcast(eta), p_hat=MixtureWeights(p_hat), alpha=alpha, saddle_gap=gap,
        iterations=iters, solver=SOLVER_SADDLE, converged=converged, warnings=tuple(warn),
        trace=SolveTrace(**pool.counts),
    )


MAX_BRUTE_BLOCKS = 16  # steps grow as B^2: 16 blocks take 7,000-8,500 (0.3 s at K = 300)
MAX_ELLIPSOID_STEPS = 50_000
_ELLIPSOID_TOL = 1e-13  # certified suboptimality, relative to R^2 (half the range of xi)


def brute_force_mmse(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
) -> EstimatorResult:
    """Independent oracle for solve_mmse: a dual-free primal minimization.

    Minimizes F(eta) = max_k E_{g_k}[(xi - eta)^2] over the B block values of
    eta by the central-cut ellipsoid method (Yudin & Nemirovski 1976; Shor
    1977) on xi - m, m the midpoint and R = xi.unit the half-width of the
    range of xi (exact for a large offset, by Sterbenz), from the ball of radius
    sqrt(B) * R around 0; the ball holds a minimizer, as clipping eta into the
    range of xi raises no r_k. Each step cuts through the centre c with the
    gradient g of the largest r_k; F* >= F(c) - sqrt(g' P g), so the run stops
    once the best centre is certified within 1e-13 * R^2 of F*, and no shift
    of xi moves it. saddle_gap is that certified gap, so the run has
    converged exactly when saddle_gap <= 1e-13 * R^2; one that reaches
    MAX_ELLIPSOID_STEPS has not. iterations counts the cuts. The method
    builds no mixture, so p_hat is None.
    """
    if c.num_blocks > MAX_BRUTE_BLOCKS:
        raise GuardRefusalError(
            f"brute force limited to {MAX_BRUTE_BLOCKS} blocks, got {c.num_blocks}"
        )
    check_same_space(ms, xi, c)
    m, R = (float(np.max(xi.values)) + float(np.min(xi.values))) / 2.0, xi.unit
    W, x, labels, n = ms.weights_matrix, xi.values - m, c.labels, c.num_blocks
    mass = c.block_sums(W).sum(axis=0)
    if np.any(mass <= 0.0):
        raise ZeroMassBlockError(c.blocks[int(np.argmax(mass <= 0.0))])
    tol = _ELLIPSOID_TOL * R**2
    centre = np.zeros(n)
    P = n * R**2 * np.eye(n)
    best, best_val, lower = centre, math.inf, -math.inf
    steps = 0
    while True:
        dev = x - centre[labels]
        r = W @ dev**2
        k = int(np.argmax(r))
        if r[k] < best_val:
            best, best_val = centre, float(r[k])
        g = -2.0 * c.block_sums(W[k] * dev)
        Pg = P @ g
        gPg = float(g @ Pg)
        # a rounding-indefinite P gives no bound; g = 0 certifies the centre
        if gPg >= 0.0:
            lower = max(lower, float(r[k]) - math.sqrt(gPg))
        gap = best_val - lower
        if gap <= tol or gPg <= 0.0 or steps == MAX_ELLIPSOID_STEPS:
            break
        steps += 1
        b = Pg / math.sqrt(gPg)
        centre = centre - b / (n + 1)
        if n == 1:  # the general update divides by n^2 - 1; bisect instead
            P = P / 4.0
        else:
            P = n * n / (n * n - 1.0) * (P - 2.0 / (n + 1) * np.outer(b, b))

    converged = gap <= tol
    warn = [] if converged else [
        f"ellipsoid method stopped at bound gap {gap:.3e} > {tol:.1e} after {steps} steps"
    ]
    return EstimatorResult(
        eta_hat=c.broadcast(best + m),
        p_hat=None,
        alpha=best_val,
        saddle_gap=gap,
        iterations=steps,
        solver=SOLVER_BRUTE,
        converged=converged,
        warnings=tuple(warn),
    )


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
    (the exact inner minimum is the conditional expectation). A block P_hat
    leaves uncharged adds 0 to the inner minimum whatever eta is there, so it
    is skipped. max_over_P comes from the weight matrix, not the solver's
    support query. Tolerance scales with 1 + alpha. The result is
    solve_mmse's: the oracle's has no P_hat to audit.
    """
    cfg = cfg or SolverConfig()
    check_same_space(xi, result.eta_hat)
    x = xi.values
    d = x - result.eta_hat.values
    sq = d * d
    max_over_p = float(np.max(ms.weights_matrix @ sq))
    p = mix(ms, result.p_hat).weights
    value_at_saddle = float(np.dot(p, sq))
    mass = c.block_sums(p)
    live = mass > 0.0
    cond = np.zeros(c.num_blocks)
    cond[live] = c.block_sums(p * x)[live] / mass[live]
    r = x - cond[c.labels]
    min_over_eta = float(np.dot(p, r * r))
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


def _centered_moments(ms, xi, c, eta_tilde, name):
    """d = xi - eta_tilde and u[k, B] = E_{g_k}[d 1_B] / M, M = bound(xi) (1 for
    xi = 0): the unit-free linear coefficients of rho[(xi - eta_tilde) eta]."""
    if not is_measurable(eta_tilde, c):
        raise ArgumentError(f"{name} must be measurable w.r.t. the partition")
    check_same_space(ms, xi, c)
    d = xi.values - eta_tilde.values
    return d, c.block_sums(ms.weights_matrix * d) / (xi.bound or 1.0)


def _hull_witness(witness, u):
    """witness as simplex weights lam that put 0 in the hull of the rows of u,
    or None. lam qualifies when it has one entry per row, lam >= 0, and
    sum_B |lam @ u_B| + |sum lam - 1| <= HULL_TOL: the residual the
    simplex's phase 1 would leave at lam."""
    if witness is None:
        return None
    lam = np.asarray(witness, dtype=float)
    ok = lam.shape == (len(u),) and np.all(lam >= 0.0)
    return lam if ok and np.abs(lam @ u).sum() + abs(lam.sum() - 1.0) <= HULL_TOL else None


def kernel_member(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_tilde: RandomVariable,
    witness=None,
) -> bool:
    """Does inf over C-measurable eta of rho[(xi - eta_tilde) eta] equal zero?

    The inner expectations are linear in eta with coefficient vectors
    u_k[B] = E_{g_k}[(xi - eta_tilde) 1_B]; by positive homogeneity the infimum
    is 0 exactly when 0 lies in the convex hull of the u_k and -infinity
    otherwise. Membership is tested on u_k / bound(xi), so that HULL_TOL does
    not depend on the units of xi.

    witness, optional, is a mixture lam over the generators, such as the
    solver's P_hat (for eta_tilde = eta_hat, the conditional mean under P_hat,
    lam @ u = 0). It proves membership without an LP when the residual the
    simplex's phase 1 would leave at lam, with u rebuilt here from the weight
    rows, is at most HULL_TOL (_hull_witness). Without a witness, or when it
    fails, membership is one linear feasibility problem, decided by the
    in-repo simplex with HULL_TOL as its phase-1 residual.
    """
    _, u = _centered_moments(ms, xi, c, eta_tilde, "eta_tilde")
    if _hull_witness(witness, u) is not None:
        return True
    member, _, _ = hull_membership(u, np.zeros(c.num_blocks))
    return member


@dataclass(frozen=True)
class NsReport:
    lower_bound: float  # certified bound on the infimum; -inf when the hull test fails
    rho_sq: float
    holds: bool
    active: int  # generators with r_k within tol * bound(xi)^2 of rho_sq


def ns_condition(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_hat: RandomVariable,
    tol: float = 1e-6,
    witness=None,
) -> NsReport:
    """Check inf over C-measurable eta of rho[(xi - eta_hat)(xi - eta)] == rho(xi - eta_hat)^2.

    With d = xi - eta_hat, r_k = E_{g_k}[d^2], u_k[B] = E_{g_k}[d 1_B] and
    a_k = E_{g_k}[d xi], the inner function is h(eta) = max_k (a_k - u_k @ eta)
    and h(eta_hat) = max_k r_k = rho_sq, since a_k - u_k @ eta_hat = r_k. For
    simplex weights mu, h >= mu @ a - M * |mu @ u|_1 on the box |eta| <= M =
    bound(xi) (1 for xi = 0). So the check is a hull test on the active
    generators, those with r_k >= rho_sq - tol * M^2 (Rockafellar 1970, sec.
    23): it looks for mu on them with mu @ u / M = 0 within HULL_TOL, and
    holds when the certified lower bound is within tol * M^2 of rho_sq. The
    box needs no normal-cone term: where eta_hat touches +-M, |xi| <= M makes
    every u_k one-signed on that block.

    witness, optional, is a mixture lam over all the generators, such as the
    solver's P_hat. The bound holds for any simplex weights, so when lam
    passes kernel_member's residual test (with HULL_TOL) and its bound proves
    the condition, no LP runs and lower_bound is taken at lam. Otherwise the
    hull test on the active generators decides, as without a witness.
    """
    d, u = _centered_moments(ms, xi, c, eta_hat, "eta_hat")
    W = ms.weights_matrix
    M = xi.bound or 1.0
    r = W @ (d * d)
    rho_sq = float(np.max(r))
    active = np.flatnonzero(r >= rho_sq - tol * M * M)

    def report(mu, rows):
        # mu @ a - M |mu @ u|_1, with u in units of M
        lower = float(mu @ (W[rows] @ (d * xi.values)) - M * M * np.abs(mu @ u[rows]).sum())
        holds = rho_sq - lower <= tol * M * M
        return NsReport(lower_bound=lower, rho_sq=rho_sq, holds=holds, active=len(active))

    lam = _hull_witness(witness, u)
    if lam is not None:
        rep = report(lam, slice(None))
        if rep.holds:
            return rep
    member, mu, _ = hull_membership(u[active], np.zeros(c.num_blocks))
    if not member:
        return NsReport(lower_bound=-math.inf, rho_sq=rho_sq, holds=False, active=len(active))
    return report(mu, active)


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
    tol: float = VALUE_TOL,
) -> OptimalityReport:
    """Margins of rho[(xi - eta)(xi - eta_hat)] >= rho(xi - eta_hat)^2 per eta,
    each ok when at least -tol * xi.unit^2."""
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
        entries.append(OptimalityEntry(index=i, margin=margin, ok=margin >= -tol * xi.unit**2))
    return OptimalityReport(entries=tuple(entries))


def penalized_value(
    ms: MeasureSet,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta: RandomVariable,
) -> float:
    """sup over nonnegative C-measurable penalties of rho[(xi-eta)^2 + penalty*(xi-eta)].

    Finite exactly when eta dominates the upper conditional envelope blockwise
    (the penalty direction is then nonpositive and zero is optimal, giving
    rho[(xi-eta)^2]); otherwise unbounded: mass on a violating block grows the
    value past any real number. eta may lie VALUE_TOL * xi.unit below the
    envelope, which is rounded.
    """
    # strictly comparable on a finite hull: every generator positive everywhere
    if not np.all(ms.weights_matrix > 0.0):
        raise PropernessError(
            "penalized problem requires strictly positive (strictly comparable) generators"
        )
    if not is_measurable(eta, c):
        raise ArgumentError("eta must be measurable w.r.t. the partition")
    upper = ess_sup_conditional(ms, xi, c)
    eta_blocks = eta.values[c.first]
    upper_blocks = upper.values[c.first]
    if np.all(eta_blocks >= upper_blocks - VALUE_TOL * xi.unit):
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
) -> MinimaxGapReport:
    """Penalized inf-sup at the upper envelope versus sup-inf (the MMSE value).

    The gap vanishes exactly when the upper conditional envelope solves the
    mean square problem; it is zero for every single-generator set and
    positive whenever worst-case conditioning and estimation disagree.
    ess_sup_is_mmse holds when the gap is at most VALUE_TOL * xi.unit^2.
    """
    upper = ess_sup_conditional(ms, xi, c)
    minimax = penalized_value(ms, xi, c, upper)
    maximin = solve_mmse(ms, xi, c).alpha
    gap = minimax - maximin
    return MinimaxGapReport(
        minimax=minimax,
        maximin=maximin,
        gap=gap,
        ess_sup_is_mmse=gap <= VALUE_TOL * xi.unit**2,
    )
