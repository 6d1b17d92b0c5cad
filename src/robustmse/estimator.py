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

That dual ascent runs on a set whose generators couple its blocks (a
MeasureSet). A set whose blocks do not interact solves them apart: the set
query block_solve answers None or the blocks' solutions, and solve_mmse
builds the same EstimatorResult from either. A TreeModel conditioned at a
level is such a set (gexp.TreeModel.block_solve): its corners choose each
block's subtree apart, so alpha is the sup recursion of the blocks' own
minima, each a convex problem in one variable.

The remaining operations certify or characterize a candidate estimator:
saddle verification, kernel membership, the product-form optimality
equation, and the penalized problem whose solution is the upper conditional
envelope. The band between the conditional envelopes, which equals the kernel
on a stable set, is stability.kernel_interval.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, GuardRefusalError, PropernessError
from .measures import Measure, MixtureWeights, SetQueries
from .simplexlp import hull_membership, hull_witness
from .spaces import VALUE_TOL, PartitionAlgebra, RandomVariable, check_same_space, is_measurable
from .sublinear import conditional_envelopes, rho

SOLVER_SADDLE = "saddle_iteration"
SOLVER_BRUTE = "brute_force"

_FACE_STEPS = 50  # Newton steps and drops per face; quadratic convergence needs few
_LINE_STEPS = 30  # step halvings before a face counts as solved
_SHIFT = 1e-12  # Hessian shift of the face steps, in units of the residual scale
_EPS = sys.float_info.epsilon  # of binary64

SADDLE_TOL = 1e-8  # saddle gap of a converged solve and of verify_saddle, relative to 1 + alpha
MAX_ADDITIONS = 10_000  # generator additions of one dual solve
NS_TOL = 1e-6  # ns_condition's active set and verdict, relative to bound(xi)^2


class SolveTrace(NamedTuple):
    """What one dual solve did, counted deterministically: the same instance
    gives the same counts. The library reports them; result files do not."""

    additions: int = 0  # generators added; EstimatorResult.iterations
    newton_steps: int = 0  # face Newton steps that reached the line search
    line_evals: int = 0  # evaluations of phi in those line searches
    stuck_drops: int = 0  # blocking generators dropped at weight 0, without a line search
    residue_drops: int = 0  # blocking generators dropped at rounding-residue weight
    capped_faces: int = 0  # face ascents that ran all _FACE_STEPS
    pair_additions: int = 0  # failed additions retried with a second generator


class EstimatorResult(NamedTuple):
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


class Certificate(NamedTuple):
    max_over_P: float
    value_at_saddle: float
    min_over_eta: float
    passed: bool


class _Pool:
    """The generators the dual solver has added, each with its weight row and
    its rows of block masses and first moments E_g[xi 1_B], the queries it
    puts to the measure set (solve_mmse), and the counts of the solve's work
    (SolveTrace). Residuals are taken over the weight rows at xi - eta:
    expanded second moments cancel once xi has a large offset.

    weights, mass and first are the filled rows of buffers that double when
    full, so adding a generator copies no earlier row."""

    def __init__(self, ms: SetQueries, xi: RandomVariable, c: PartitionAlgebra):
        self.support, self.rows, mean = ms.support, ms.rows, ms.mean_row()
        self.xi, self.x, self.c = xi, xi.values, c
        self.reference_cond = c.block_sums(mean * self.x) / c.charged_masses(mean)
        self.ids: list[int] = []  # generator of each pooled row
        self._index: dict[int, int] = {}
        widths = (len(self.x), c.num_blocks, c.num_blocks)
        self._buffers = tuple(np.empty((8, width)) for width in widths)
        self.weights, self.mass, self.first = (b[:0] for b in self._buffers)
        self.counts = dict.fromkeys(SolveTrace._fields, 0)

    def add(self, k: int) -> int:
        """The pool row of generator k, pooled on first use."""
        row = self._index.get(k)
        if row is None:
            row = self._index[k] = len(self.ids)
            self.ids.append(k)
            if row == len(self._buffers[0]):
                self._buffers = tuple(np.concatenate((b, np.empty_like(b))) for b in self._buffers)
            weights, mass, first = self._buffers
            weights[row] = w = self.rows([k])[0]
            mass[row], first[row] = self.c.block_sums(np.array((w, w * self.x)))
            self.weights, self.mass, self.first = (b[: row + 1] for b in self._buffers)
        return row

    def cond(self, mass: np.ndarray, first: np.ndarray) -> np.ndarray:
        """first / mass per block; reference_cond where mass is 0."""
        if mass[mass.argmin()] > 0.0:
            return first / mass
        return np.divide(first, mass, out=self.reference_cond.copy(), where=mass > 0.0)

    def eta_of(self, lam: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """E_{P_lam}[xi | C] per block, lam weighing the pooled rows in rows."""
        return self.cond(lam @ self.mass[rows], lam @ self.first[rows])

    def worst(self, eta: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(residuals of the pooled rows, generator k with the largest r_k, r_k)."""
        d = self.x - eta[self.c.labels]
        sq = d * d
        r = self.weights @ sq
        top, k, _ = self.support(sq, -math.inf)
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
    the face without a step, unless it holds the face's whole weight (the
    others were just added at 0), which ends the ascent there. A weight of 0
    (a generator just added) that the step lowers leaves the ratio test no
    step at all, so no line search runs
    (SolveTrace.stuck_drops); any other such weight is rounding residue of a
    generator that has left, as a Newton step that should zero a weight can
    leave ~1e-15 of it (SolveTrace.residue_drops). Returns the surviving
    generators and their weights, at most one more than the charged blocks.

    A step makes few numpy calls on arrays of at most B + 2 entries: the KKT
    system is one (n+1)^2 buffer, the block mask and the re-slicing of the
    face run only when a block is uncharged or a weight reaches 0, and the
    Caratheodory size is tested before its matrix is built.
    """
    x, c, labels, counts = pool.x, pool.c, pool.c.labels, pool.counts
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
        top = float(r[r.argmax()])  # argmax is a C method; max wraps a reduction
        low_gap = min(low_gap, top - phi)
        if _closed(top - phi, len(s), top):
            break
        n = len(s)
        d, dev = moments
        u = c.block_sums(rows * dev)
        if not d[d.argmin()] > 0.0:  # a block the face leaves uncharged adds nothing
            live = d > 0.0
            u, d = u[:, live], d[live]
        # the KKT system in one buffer: the Hessian, bordered by ones
        kkt = np.ones((n + 1, n + 1))
        hess = np.matmul(-2.0 * (u / d), u.T, out=kkt[:n, :n])
        hess /= scale
        kkt.ravel()[: n * (n + 2) : n + 2] -= _SHIFT
        kkt[n, n] = 0.0
        rhs = np.zeros(n + 1)
        np.divide(r, -scale, out=rhs[:n])
        dw = np.linalg.solve(kkt, rhs)[:n]
        # the ratio test: w_i / -dw_i over the weights the step lowers
        neg = -dw
        ratios = np.empty(n)
        ratios.fill(math.inf)
        np.divide(w, neg, out=ratios, where=neg > 0.0)
        j = int(ratios.argmin())  # the weight that clips, if t_max < 1
        t = t_max = min(1.0, float(ratios[j]))
        # t_max = 0: a weight of 0 that the step lowers leaves no step at all
        line_steps = _LINE_STEPS if t_max > 0.0 else 0
        counts["newton_steps"] += line_steps > 0
        for _ in range(line_steps):
            cand = w + t * dw
            np.maximum(cand, 0.0, out=cand)
            if t == t_max < 1.0:
                cand[j] = 0.0
            cand /= cand.sum()
            counts["line_evals"] += 1
            moments_c, r_c, phi_c = state(cand)
            if phi_c > top_phi or float(r_c[r_c.argmax()]) - phi_c < low_gap:
                break
            t *= 0.5
        else:
            # nothing along the step counts: the face is solved as far as its
            # steps go if the step is not clipped, or if the generator that
            # clips it holds the whole weight; otherwise that generator
            # leaves without a step
            on = np.arange(n) != j
            if t_max == 1.0 or not w[on].any():
                break
            counts["stuck_drops" if w[j] == 0.0 else "residue_drops"] += 1
            w, moments, r, phi = drop(on, w)
            continue
        w, moments, r, phi = cand, moments_c, r_c, phi_c
        if not cand[cand.argmin()] > 0.0:  # a weight reached 0: its generator leaves
            on = cand > 0.0
            leave(on)
            # a sum without the zero terms can round apart from one with
            # them: the masses of (s, w) as state(w) would give them
            w, r = cand[on], r_c[on]
            moments = (w @ mass, moments_c[1])
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
        if len(s) <= np.count_nonzero(live) + 1:
            return s, w
        m = np.vstack([c.block_sums(rows * dev)[:, live].T / pool.xi.unit, np.ones(len(s))])
        v = np.linalg.svd(m)[2][-1]
        if v @ r < 0.0:
            v = -v
        down = np.flatnonzero(v < 0.0)
        j = down[int(np.argmin(w[down] / -v[down]))]
        w = np.clip(w + (w[j] / -v[j]) * v, 0.0, None)
        w[j] = 0.0
        w, moments, r, phi = drop(w > 0.0, w)


def _simplicial_decomposition(pool, eta0):
    """Fully-corrective Frank-Wolfe on the dual: add the generator argmax r,
    re-maximize phi over the hull of the active generators, repeat.

    Starts from the single generator argmax r at eta0, whose residual fixes
    the scale of the face steps (R^2 where that residual is 0). Stops when
    the saddle gap max r - phi is within the rounding of phi (_closed, with
    max r over every generator), or when an addition improves neither phi
    nor the gap, or after MAX_ADDITIONS additions. Returns the active pool rows s, their weights w,
    and the evaluation of that mixture the stop rule read: eta =
    E_{P_w}[xi | C] per block, phi and max r.

    One vertex can fail where a block is uncharged: phi is not
    differentiable there, since eta on that block is free, so the vertex
    argmax r need not be an ascent direction (on a set that is not proper,
    each of two generators can charge one point of the block and raise phi
    only together). So an addition of k that improves neither phi nor the
    gap is retried once as a pair (SolveTrace.pair_additions): on the blocks
    U that the face leaves uncharged and k charges, eta takes k's own
    conditional mean, and k joins the face with k2, the generator argmax r
    at that eta. The solve stops only if the pair fails too, or if U is
    empty.
    """

    def evaluate(s, w):
        eta = pool.eta_of(w, s)
        r, k, top = pool.worst(eta)
        return eta, float(w @ r[s]), top, k

    def ascend(rows):
        # the face s with the pool rows not in it added at weight 0, ascended
        on = s.tolist()
        new = [r for r in dict.fromkeys(rows) if r not in on]
        s_new = np.concatenate((s, np.array(new, dtype=s.dtype)))
        s_new, w_new = _face_ascent(pool, s_new, np.concatenate((w, np.zeros(len(new)))), scale)
        eta_new, phi_new, top_new, k_new = evaluate(s_new, w_new)
        improved = phi_new > top_phi or top_new - phi_new < low_gap
        return improved, (s_new, w_new, eta_new, phi_new, top_new, k_new)

    _, k, scale = pool.worst(eta0)
    if scale == 0.0:  # every point the start generator charges has xi == eta0
        scale = pool.xi.unit ** 2
    s = np.array([pool.add(k)])
    w = np.ones(1)
    eta, phi, top, k = evaluate(s, w)
    top_phi, low_gap = phi, top - phi
    counts = pool.counts
    while counts["additions"] < MAX_ADDITIONS and not _closed(top - phi, len(s), top):
        counts["additions"] += 1
        row = pool.add(k)
        improved, new = ascend([row])
        if not improved:
            opened = ~(w @ pool.mass[s] > 0.0) & (pool.mass[row] > 0.0)
            if not opened.any():
                break
            counts["pair_additions"] += 1
            eta_k = eta.copy()
            eta_k[opened] = pool.first[row, opened] / pool.mass[row, opened]
            improved, new = ascend([row, pool.add(pool.worst(eta_k)[1])])
            if not improved:
                break
        s, w, eta, phi, top, k = new
        top_phi, low_gap = max(top_phi, phi), min(low_gap, top - phi)
    return s, w, eta, phi, top


def _refuse_out_of_range(xi: RandomVariable) -> None:
    """Refuse an xi whose squared residuals leave the normal range of binary64:
    |xi - eta| reaches 2R (R = xi.unit) for an eta in the range of xi, so 4 R^2
    must be finite and R^2 at least the least normal float (R from about 1.49e-154)."""
    R = xi.unit
    if math.isinf(4.0 * R * R) or R * R < sys.float_info.min:
        over = "squared residuals up to (2R)^2 overflow"
        why = over if R > 1.0 else "R^2 is below the normal range of"
        raise GuardRefusalError(f"xi has half-range R = {R:.3e}: {why} binary64")


def solve_mmse(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    init_weights=None,
) -> EstimatorResult:
    """Minimize the worst-case mean square error over C-measurable estimators.

    ms is read through its queries (SetQueries). If not is_proper(), a
    warning says eta_hat may be non-unique. For a non-measurable xi the
    answer of block_solve(xi, c, p0, MAX_ADDITIONS) chooses the solver. A
    TreeModel, at its level partitions only, answers with its blocks'
    solutions; iterations counts the corners it added
    (SolveTrace.additions, its other counts 0).

    A set that answers None, such as a MeasureSet, has its dual phi
    maximized by simplicial decomposition over a pool of the generators
    added (weight row, block masses, first moments). Residuals come from the
    pooled rows at xi - eta, so the estimator commutes with a shift:
    eta_hat(xi + a) = eta_hat(xi) + a with the same alpha. It starts from
    the generator with the largest residual at E_{p0}[xi | C] and reads the
    estimator off the optimal mixture as eta_hat = E_{P_hat}[xi | C]. Each
    iteration adds one generator and re-solves on the hull of the active
    ones; iterations counts these additions, and EstimatorResult.trace the
    solve's work (SolveTrace).

    p0 is the leaf law of init_weights, one nonnegative weight per generator
    (per corner of a tree, whose rows it reads), or None: then the dual
    starts at the uniform mixture's conditional mean, a tree's blocks at
    their midpoints. MAX_ADDITIONS caps the additions on both paths. The
    run has converged when the saddle gap alpha - phi is at most
    SADDLE_TOL * (1 + alpha), the same relative test verify_saddle applies,
    so the status does not depend on the units of xi. Nonconvergence is
    reported as an explicit status (converged=False, last iterate and gap
    retained), never as a silent best effort. p_hat has one weight per
    generator (per corner for a tree). A non-measurable xi whose squared
    residuals leave the normal range of binary64 is refused
    (GuardRefusalError, _refuse_out_of_range).
    """
    warn: list[str] = []
    if not ms.is_proper():
        warn.append("measure set is not proper; solution may be non-unique")
    check_same_space(ms, xi, c)
    size = ms.num_generators()  # on a tree, the corner-count guard: p_hat is dense
    if init_weights is not None:
        lam0 = np.asarray(init_weights, dtype=float)
        if lam0.shape != (size,) or not (np.all(lam0 >= 0) and 0 < lam0.sum() < math.inf):
            raise ArgumentError("init_weights must be finite and nonnegative with positive sum")

    if is_measurable(xi, c):
        return EstimatorResult(
            eta_hat=xi, p_hat=MixtureWeights(np.full(size, 1.0 / size)), alpha=0.0,
            saddle_gap=0.0, iterations=0, solver=SOLVER_SADDLE, warnings=tuple(warn),
            trace=SolveTrace(),
        )
    _refuse_out_of_range(xi)
    p0 = None if init_weights is None else (lam0 / lam0.sum()) @ ms.rows(np.arange(size))

    solved = ms.block_solve(xi.values, c, p0, MAX_ADDITIONS)
    if solved is None:
        eta, alpha, phi, charged, counts = _dual_solve(ms, xi, c, p0)
    else:
        eta, alpha, phi, charged, additions = solved
        counts = {"additions": additions}
    iters = counts["additions"]
    # the mathematical gap is nonnegative; the dot product may round a hair
    # above the max when the residuals are all but equal
    gap = max(0.0, alpha - phi)
    converged = gap <= SADDLE_TOL * (1.0 + alpha)
    if not converged:
        warn.append(
            f"saddle iteration stopped at gap {gap:.3e} > tol {SADDLE_TOL:.1e} "
            f"after {iters} iterations"
        )
    p_hat = np.zeros(size)
    p_hat[list(charged)] = list(charged.values())

    return EstimatorResult(
        eta_hat=c.broadcast(eta), p_hat=MixtureWeights(p_hat), alpha=alpha, saddle_gap=gap,
        iterations=iters, solver=SOLVER_SADDLE, converged=converged, warnings=tuple(warn),
        trace=SolveTrace(**counts),
    )


def _dual_solve(ms, xi, c, p0):
    """solve_mmse on a set whose generators couple its blocks: simplicial
    decomposition from the generator with the largest residual at
    E_{p0}[xi | C], or at the uniform mixture without p0. Returns (eta per
    block, alpha, phi, {generator: weight} of P_hat, the SolveTrace counts)."""
    pool = _Pool(ms, xi, c)
    if p0 is None:
        eta0 = pool.reference_cond
    else:
        eta0 = pool.cond(c.block_sums(p0), c.block_sums(p0 * xi.values))
    # P_hat charges every block of a proper set; on a set that is not, a
    # block it leaves uncharged keeps reference_cond, one of the values that
    # minimize there (eta_hat need not be unique)
    s, w, eta, phi, alpha = _simplicial_decomposition(pool, eta0)
    return eta, alpha, phi, dict(zip([pool.ids[i] for i in s], w.tolist())), pool.counts


MAX_BRUTE_BLOCKS = 16  # steps grow as B^2: 16 blocks take 3,000-5,500 (0.1 s at K = 300)
MAX_ELLIPSOID_STEPS = 50_000
_ELLIPSOID_TOL = 1e-13  # certified suboptimality, relative to R^2 (half the range of xi)


def brute_force_mmse(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
) -> EstimatorResult:
    """Independent oracle for solve_mmse: a dual-free primal minimization.

    Minimizes F(eta) = max_k E_{g_k}[(xi - eta)^2] over the B block values of
    eta by the ellipsoid method (Yudin & Nemirovski 1976; Shor 1977) on
    xi - m, m the midpoint and R = xi.unit the half-width of the range of xi
    (exact for a large offset, by Sterbenz). It builds no mixture (p_hat is
    None) and starts from the ellipsoid P = B diag((hi - lo)^2 / 4) around
    the box [lo, hi] between the conditional envelopes of xi - m, widened by
    4 eps R per sample point, above the rounding of their quotients. The box
    holds a minimizer: r_k depends on eta_B only if g_k charges block B,
    through g_k(B) (eta_B - mu_kB)^2 with mu_kB in [lo_B, hi_B], so clipping
    eta into the box raises no r_k. Each step cuts with the gradient g of the
    largest r_k at the centre c, and F* >= F(c) - sqrt(g' P g): the run stops
    once the best centre, of value best, is certified within 1e-13 * R^2 of
    F*, and no shift of xi moves it. As r_k(c) + g'(y - c) <= best at a
    minimizer y, the cut is deep (Bland, Goldfarb & Todd 1981), of depth
    a = (r_k(c) - best) / sqrt(g' P g) < 1 while the gap is open. Near a = 1
    the update nears a singular P, which rounding can make indefinite, so a
    is capped at 1/2: a shallower cut still keeps the minimizer. The run has
    converged exactly when saddle_gap, that certified gap, is at most
    1e-13 * R^2; iterations counts the cuts, at most MAX_ELLIPSOID_STEPS.

    The run is in units of 2^e, R = f 2^e with 1/2 <= f < 1 (math.frexp):
    on (xi - m) 2^-e, where g'P g, of order R^4, neither underflows nor
    overflows. Scaling by a power of two is exact, so the iterates are those
    in the units of xi times 2^-e, and eta_hat, alpha and the gap are scaled
    back exactly. An xi whose squared residuals, up to (2R)^2, overflow, or
    whose R^2 is below the normal range, is refused (_refuse_out_of_range).
    """
    if c.num_blocks > MAX_BRUTE_BLOCKS:
        raise GuardRefusalError(
            f"brute force limited to {MAX_BRUTE_BLOCKS} blocks, got {c.num_blocks}"
        )
    check_same_space(ms, xi, c)
    _refuse_out_of_range(xi)
    m = (float(np.max(xi.values)) + float(np.min(xi.values))) / 2.0
    f, e = math.frexp(xi.unit)
    x, labels, n = np.ldexp(xi.values - m, -e), c.labels, c.num_blocks
    inf, sup = conditional_envelopes(ms, RandomVariable(xi.space, x), c)
    widen = 4.0 * len(x) * _EPS * f
    lo, hi = inf.values[c.first] - widen, sup.values[c.first] + widen
    tol = _ELLIPSOID_TOL * f**2
    centre = (lo + hi) / 2.0
    P = np.diag(n * ((hi - lo) / 2.0) ** 2)
    best, best_val, lower = centre, math.inf, -math.inf
    steps = 0
    while True:
        dev = x - centre[labels]
        rk, k, _ = ms.support(dev * dev, -math.inf)
        if rk < best_val:
            best, best_val = centre, rk
        g = -2.0 * c.block_sums(ms.rows([k])[0] * dev)
        Pg = P @ g
        gPg = float(g @ Pg)
        # a rounding-indefinite P gives no bound; g = 0 certifies the centre
        if gPg >= 0.0:
            lower = max(lower, rk - math.sqrt(gPg))
        gap = best_val - lower
        if gap <= tol or gPg <= 0.0 or steps == MAX_ELLIPSOID_STEPS:
            break
        steps += 1
        root = math.sqrt(gPg)
        b = Pg / root
        a = min((rk - best_val) / root, 0.5)
        centre = centre - (1.0 + n * a) / (n + 1) * b
        if n == 1:  # the general update divides by n^2 - 1; cut the interval
            P = P * ((1.0 - a) / 2.0) ** 2
        else:
            shrink = 2.0 * (1.0 + n * a) / ((n + 1) * (1.0 + a))
            P = n * n * (1.0 - a * a) / (n * n - 1.0) * (P - shrink * (b[:, None] * b))

    converged = gap <= tol
    alpha, gap, tol = (math.ldexp(v, 2 * e) for v in (best_val, gap, tol))
    warn = [] if converged else [
        f"ellipsoid method stopped at bound gap {gap:.3e} > {tol:.1e} after {steps} steps"
    ]
    return EstimatorResult(
        eta_hat=c.broadcast(np.ldexp(best, e) + m),
        p_hat=None,
        alpha=alpha,
        saddle_gap=gap,
        iterations=steps,
        solver=SOLVER_BRUTE,
        converged=converged,
        warnings=tuple(warn),
    )


def verify_saddle(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    result: EstimatorResult,
) -> Certificate:
    """Audit the two saddle inequalities at (eta_hat, P_hat).

    max_over_P <= value_at_saddle certifies P_hat is worst-case at eta_hat;
    value_at_saddle <= min_over_eta certifies eta_hat minimizes under P_hat
    (the exact inner minimum is the conditional expectation). A block P_hat
    leaves uncharged adds 0 to the inner minimum whatever eta is there, so it
    is skipped; for a measurable xi, its own conditional mean, it is 0
    exactly, not the square of a rounding (which overflows at large scales).
    max_over_P is support((xi - eta_hat)^2, -inf); P_hat is read off the rows it
    charges. The tolerance is SADDLE_TOL * (1 + alpha). The result is solve_mmse's:
    one with no P_hat to audit (the oracle's) is an ArgumentError, and the
    set, xi, c and eta_hat must share one space. Like solve_mmse, it refuses
    a non-measurable xi out of binary64's range (_refuse_out_of_range).
    """
    charged, measurable = _audited(ms, xi, c, result)
    return _saddle(ms, xi, c, result, charged, measurable)


def _audited(ms, xi, c, result):
    """verify_saddle's checks of its arguments; then the rows that the result's
    P_hat charges (_charged_rows) and whether xi is C-measurable."""
    check_same_space(ms, xi, c, result.eta_hat)
    if result.p_hat is None:
        raise ArgumentError("result has no p_hat to audit; verify_saddle takes solve_mmse's")
    charged = _charged_rows(ms, result.p_hat.lam)
    if charged is None:
        raise ArgumentError(f"p_hat has {len(result.p_hat)} weights, not one per generator")
    measurable = is_measurable(xi, c)
    if not measurable:
        _refuse_out_of_range(xi)
    return charged, measurable


def _saddle(ms, xi, c, result, charged, measurable) -> Certificate:
    """verify_saddle's certificate, from what _audited returns."""
    x = xi.values
    d = x - result.eta_hat.values
    sq = d * d
    max_over_p = ms.support(sq, -math.inf)[0]
    p = Measure(ms.space, charged[0] @ charged[1]).weights
    value_at_saddle = float(np.dot(p, sq))
    cond = x
    if not measurable:
        means = c.conditional_means(p, x, c.block_sums(p))
        if not np.isfinite(means).all():  # NaN on a block P_hat leaves uncharged
            means = np.nan_to_num(means)
        cond = means[c.labels]
    r = x - cond
    min_over_eta = float(np.dot(p, r * r))
    tol = SADDLE_TOL * (1.0 + abs(result.alpha))
    passed = (max_over_p <= value_at_saddle + tol) and (
        value_at_saddle <= min_over_eta + tol
    )
    return Certificate(
        max_over_P=max_over_p,
        value_at_saddle=value_at_saddle,
        min_over_eta=min_over_eta,
        passed=passed,
    )


def _charged_rows(ms, witness):
    """(lam_k, rows g_k) of the generators k that a mixture lam over all of
    them charges; None without a witness or one weight per generator."""
    lam = np.asarray(() if witness is None else witness, dtype=float)
    if lam.shape != (ms.num_generators(),):
        return None
    ks = lam.nonzero()[0]
    return lam[ks], ms.rows(ks)


def _deviation(xi, c, eta_tilde, name):
    """d = xi - eta_tilde and M = bound(xi) (1 for xi = 0): u[k, B] = E_{g_k}[d 1_B]
    / M, the unit-free linear coefficients of rho[(xi - eta_tilde) eta]. The
    caller has checked that xi and c share the set's space; eta_tilde must be
    C-measurable (else ArgumentError)."""
    if not is_measurable(eta_tilde, c):
        raise ArgumentError(f"{name} must be measurable w.r.t. the partition")
    return xi.values - eta_tilde.values, xi.bound or 1.0


def _witness_test(c, charged, d, M):
    """(u of the charged generators, whether their weights pass the hull
    residual test on it: simplexlp.hull_witness), or (None, False) without
    charged rows. kernel_member and ns_condition both accept a witness so."""
    if charged is None:
        return None, False
    u = c.block_sums(charged[1] * d) / M
    return u, hull_witness(charged[0], u)


def kernel_member(
    ms: SetQueries,
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
    simplex's phase 1 would leave at lam, on the rows lam charges, is at most
    HULL_TOL (simplexlp.hull_witness). Without a witness, or when it fails,
    membership is one linear feasibility problem over every row, decided by
    the in-repo simplex with HULL_TOL as its phase-1 residual.
    """
    check_same_space(ms, xi, c)
    d, M = _deviation(xi, c, eta_tilde, "eta_tilde")
    return _kernel(ms, c, d, M, _witness_test(c, _charged_rows(ms, witness), d, M)[1])


def _kernel(ms, c, d, M, fits) -> bool:
    """kernel_member's verdict, given whether the witness passed _witness_test."""
    if fits:
        return True
    every = ms.rows(np.arange(ms.num_generators()))
    member, _, _ = hull_membership(c.block_sums(every * d) / M, np.zeros(c.num_blocks))
    return member


class NsReport(NamedTuple):
    lower_bound: float  # certified bound on the infimum; -inf when the hull test fails
    rho_sq: float
    holds: bool
    active: int  # generators with r_k within NS_TOL * bound(xi)^2 of rho_sq


def ns_condition(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_hat: RandomVariable,
    witness=None,
) -> NsReport:
    """Check inf over C-measurable eta of rho[(xi - eta_hat)(xi - eta)] == rho(xi - eta_hat)^2.

    With d = xi - eta_hat, r_k = E_{g_k}[d^2], u_k[B] = E_{g_k}[d 1_B] and
    a_k = E_{g_k}[d xi], the inner function is h(eta) = max_k (a_k - u_k @ eta)
    and h(eta_hat) = max_k r_k = rho_sq, since a_k - u_k @ eta_hat = r_k. For
    simplex weights mu, h >= mu @ a - M * |mu @ u|_1 on the box |eta| <= M =
    bound(xi) (1 for xi = 0). So the check is a hull test on the active
    generators, those with r_k >= rho_sq - NS_TOL * M^2 (Rockafellar 1970,
    sec. 23): it looks for mu on them with mu @ u / M = 0 within HULL_TOL, and
    holds when the certified lower bound is within NS_TOL * M^2 of rho_sq
    (NS_TOL = 1e-6, a constant of this module). The box needs no normal-cone
    term: where eta_hat touches +-M, |xi| <= M makes every u_k one-signed on
    that block. rho_sq and the active set come from support(d^2, NS_TOL * M^2).

    witness, optional, is a mixture lam over all the generators, such as the
    solver's P_hat. The bound holds for any simplex weights, so when lam
    passes kernel_member's residual test (with HULL_TOL) and its bound proves
    the condition, no LP runs and lower_bound is taken at lam. Otherwise the
    hull test on the active generators decides, as without a witness. Like
    solve_mmse, it refuses a non-measurable xi out of binary64's range.

    The threshold and the bound are formed in units of 4^e, M = f 2^e
    (math.frexp), as M^2 overflows from M = 1.34e154 while R^2 need not; the
    bits are those in the units of xi wherever M^2 and the products are
    normal. Where a term of the bound (any a_k, by support of +-d xi, or the
    bound itself) lies outside binary64's range in the units of xi, as at an
    offset of 1e160 on an R of 1.5e150, it is refused (GuardRefusalError).
    """
    check_same_space(ms, xi, c)
    if not is_measurable(xi, c):
        _refuse_out_of_range(xi)
    d, M = _deviation(xi, c, eta_hat, "eta_hat")
    charged = _charged_rows(ms, witness)
    return _ns(ms, xi, c, d, M, charged, *_witness_test(c, charged, d, M))


def _ns(ms, xi, c, d, M, charged, u, fits) -> NsReport:
    """ns_condition's report, from _deviation's d and M, the witness's charged
    rows and their _witness_test."""
    f, e = math.frexp(M)  # M = f 2^e; below, values in units of 4^e
    tol = NS_TOL * f * f
    d_unit = np.ldexp(d, -e)
    sq = np.square(d_unit)
    rho_unit, _, active = ms.support(sq, tol)
    rho_sq = math.ldexp(rho_unit, 2 * e)
    dx = d_unit * np.ldexp(xi.values, -e)
    # max_k |a_k| from the largest a_k and the largest -a_k, which is minus the least
    a_max = max(ms.support(dx, -math.inf)[0], ms.support(-dx, -math.inf)[0])

    def report(mu, rows, u):
        # mu @ a - M^2 |mu @ u|_1 in units of 4^e, with u in units of M
        lower = float(mu @ (rows @ dx) - f * f * np.abs(mu @ u).sum())
        top = max(a_max, abs(lower))
        if top > 0.0 and math.frexp(top)[1] + 2 * e > sys.float_info.max_exp:
            raise GuardRefusalError(
                f"xi has max|xi| = {xi.bound:.3e}: a term of the NS lower bound overflows binary64"
            )
        holds = rho_unit - lower <= tol
        return NsReport(
            lower_bound=math.ldexp(lower, 2 * e), rho_sq=rho_sq, holds=holds, active=len(active)
        )

    if fits:
        rep = report(*charged, u)
        if rep.holds:
            return rep
    rows = ms.rows(active)
    u = c.block_sums(rows * d) / M
    member, mu, _ = hull_membership(u, np.zeros(c.num_blocks))
    if not member:
        return NsReport(lower_bound=-math.inf, rho_sq=rho_sq, holds=False, active=len(active))
    return report(mu, rows, u)


def certify(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    result: EstimatorResult,
) -> tuple[Certificate, bool, NsReport]:
    """verify_saddle(result), then kernel_member and ns_condition at eta_hat
    with P_hat as witness, in one pass and with the same bits: the rows P_hat
    charges are read once, u and the witness test are formed once for both
    hull checks, and xi's measurability and range are checked once. It
    refuses what verify_saddle refuses, and a result whose eta_hat is not
    C-measurable (an ArgumentError, as from the other two)."""
    charged, measurable = _audited(ms, xi, c, result)
    cert = _saddle(ms, xi, c, result, charged, measurable)
    d, M = _deviation(xi, c, result.eta_hat, "eta_hat")
    u, fits = _witness_test(c, charged, d, M)
    return cert, _kernel(ms, c, d, M, fits), _ns(ms, xi, c, d, M, charged, u, fits)


class OptimalityEntry(NamedTuple):
    margin: float
    ok: bool


class OptimalityReport(NamedTuple):
    entries: tuple[OptimalityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def optimality_ineq(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta_hat: RandomVariable,
    eta_list,
) -> OptimalityReport:
    """Margins of rho[(xi - eta)(xi - eta_hat)] >= rho(xi - eta_hat)^2 per eta,
    each ok when at least -VALUE_TOL * xi.unit^2. Like solve_mmse, it refuses a
    non-measurable xi out of binary64's range."""
    if not is_measurable(xi, c):
        _refuse_out_of_range(xi)
    if not is_measurable(eta_hat, c):
        raise ArgumentError("eta_hat must be measurable w.r.t. the partition")
    resid = xi - eta_hat
    base = rho(ms, resid * resid)
    entries = []
    for i, eta in enumerate(eta_list):
        if not is_measurable(eta, c):
            raise ArgumentError(f"eta_list[{i}] is not measurable w.r.t. the partition")
        lhs = rho(ms, (xi - eta) * resid)
        margin = lhs - base
        entries.append(OptimalityEntry(margin=margin, ok=margin >= -VALUE_TOL * xi.unit**2))
    return OptimalityReport(entries=tuple(entries))


def penalized_value(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
    eta: RandomVariable,
) -> float:
    """sup over nonnegative C-measurable penalties of rho[(xi-eta)^2 + penalty*(xi-eta)].

    Finite exactly when eta dominates the upper conditional envelope blockwise
    (the penalty direction is then nonpositive and zero is optimal, giving
    rho[(xi-eta)^2]); otherwise unbounded: mass on a violating block grows the
    value past any real number. eta may lie VALUE_TOL * xi.unit below the
    envelope, which is rounded. Like solve_mmse, it refuses a non-measurable
    xi out of binary64's range.
    """
    return _penalized(ms, xi, c, eta, lambda: conditional_envelopes(ms, xi, c)[1])


def _penalized(ms, xi, c, eta, upper):
    """penalized_value, with upper() the upper conditional envelope of xi."""
    if not is_measurable(xi, c):
        _refuse_out_of_range(xi)
    # strictly comparable: proper, and the reference charges every point
    if not (ms.is_proper() and ms.mean_row().min() > 0.0):
        raise PropernessError(
            "penalized problem requires strictly positive (strictly comparable) generators"
        )
    if not is_measurable(eta, c):
        raise ArgumentError("eta must be measurable w.r.t. the partition")
    if np.all(eta.values >= upper().values - VALUE_TOL * xi.unit):  # both C-measurable
        diff = xi - eta
        return rho(ms, diff * diff)
    return math.inf


class MinimaxGapReport(NamedTuple):
    minimax: float
    maximin: float
    gap: float
    ess_sup_is_mmse: bool


def minimax_gap(
    ms: SetQueries,
    xi: RandomVariable,
    c: PartitionAlgebra,
) -> MinimaxGapReport:
    """Penalized inf-sup at the upper envelope versus sup-inf (the MMSE value).

    The gap vanishes exactly when the upper conditional envelope solves the
    mean square problem; it is zero for every single-generator set and
    positive whenever worst-case conditioning and estimation disagree.
    ess_sup_is_mmse holds when the gap is at most VALUE_TOL * xi.unit^2.
    """
    _, upper = conditional_envelopes(ms, xi, c)
    minimax = _penalized(ms, xi, c, upper, lambda: upper)
    maximin = solve_mmse(ms, xi, c).alpha
    gap = minimax - maximin
    return MinimaxGapReport(
        minimax=minimax,
        maximin=maximin,
        gap=gap,
        ess_sup_is_mmse=gap <= VALUE_TOL * xi.unit**2,
    )
