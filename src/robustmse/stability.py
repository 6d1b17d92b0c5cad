"""Pasting of measures along a filtration, stability of measure sets, and a
randomized search for time-consistency failures of the worst-case estimator.

Stability is checked on the finite family of generator pairs at deterministic
filtration levels; that family is necessary for the full stopping-time
closure, and for rectangular (product) sets it is also sufficient, so the
verdict is labeled "generator-pasting".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, PastingDegeneracyError, PropernessError
from .estimator import SolverConfig, solve_mmse
from .measures import Measure, MeasureSet
from .randgen import (
    random_measure_set,
    random_two_level_filtration,
    random_variable,
    rng_from_seed,
)
from .simplexlp import hull_membership
from .spaces import Filtration, RandomVariable, SampleSpace, check_same_space
from .sublinear import ess_sup_conditional


@dataclass(frozen=True)
class PastedMeasure:
    base: Measure
    tail: Measure
    switch_level: int
    result: Measure


def paste(q0: Measure, q: Measure, f: Filtration, level: int) -> PastedMeasure:
    """Splice q0's mass at the switch level with q's conditional law beyond it.

    result[i] = q0(B_i) * q[i] / q(B_i) with B_i the level block containing i;
    blocks q0 does not charge stay at zero, and a block charged by q0 but not
    by q is a degeneracy (the conditional law to splice does not exist there).
    """
    check_same_space(q0, q, f.levels[0])
    if not 0 <= level < len(f.levels):
        raise ArgumentError(f"level {level} out of range 0..{len(f.levels) - 1}")
    algebra = f.levels[level]
    base = algebra.block_sums(q0.weights)
    tail = algebra.block_sums(q.weights)
    charged = base > 0.0
    degenerate = charged & (tail == 0.0)
    if np.any(degenerate):
        raise PastingDegeneracyError(algebra.blocks[int(np.argmax(degenerate))])
    scale = np.divide(base, tail, out=np.zeros_like(base), where=charged)
    out = scale[algebra.labels] * q.weights
    return PastedMeasure(base=q0, tail=q, switch_level=level, result=Measure(q0.space, out))


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    witness: PastedMeasure | None
    witness_residual: float
    pastings_checked: int
    hull_tests: int  # pastings sent to the hull LP; the rest were screened
    scope: str = "generator-pasting"


def is_stable(ms: MeasureSet, f: Filtration, tol: float = 1e-9) -> StabilityReport:
    """Paste every ordered generator pair at every level and test hull membership.

    One base generator at a time, all its pastings (every tail, every level)
    are formed as one array, bit for bit as `paste` forms them, and screened:
    a pasting p is a member, without an LP, when some generator g_k certifies
    it. With lam = min(1, min_i p_i / g_k,i), the point lam * e_k is feasible
    for the hull LP's phase 1 at objective (sum_i p_i - lam) + (1 - lam); when
    that is at most tol, so is the phase-1 optimum, and the LP would answer
    "member". The candidate g_k comes from sorting the generators along a
    fixed direction; a poor candidate only sends the pasting on to the LP.
    Every pasting not screened goes from that array to `hull_membership`, in
    (base index, tail index, level) order; hull_tests counts them. The
    witness, when present, is the first failing pasting in that order, built
    by `paste`, together with how far outside the hull the feasibility LP
    left it, and pastings_checked counts the pastings up to it.
    """
    check_same_space(ms, f.levels[0])
    if np.any(ms.weights_matrix <= 0.0):
        raise PropernessError("stability check requires strictly positive generators")
    points = ms.weights_matrix
    k, n_levels = len(points), len(f.levels)
    # masses[b, l, i]: generator b's mass of the level-l block containing
    # point i, summed one row at a time exactly as paste sums it
    masses = np.array([[lev.block_sums(row)[lev.labels] for lev in f.levels] for row in points])
    # a pasting equal to a generator has its key along a fixed generic
    # direction, so it lands next to that generator in the sorted keys
    direction = 1.0 / np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    keys = points @ direction
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    hull_tests = 0
    for a in range(k):
        tails = np.delete(np.arange(k), a)  # pasting a measure with itself is the identity
        pasted = masses[a] / masses[tails] * points[tails, None, :]
        pasted /= pasted.sum(axis=-1, keepdims=True)  # Measure's renormalization
        totals = pasted.sum(axis=-1)
        right = np.searchsorted(sorted_keys, pasted @ direction)
        screened = np.zeros(totals.shape, dtype=bool)
        for pos in (np.maximum(right - 1, 0), np.minimum(right, k - 1)):
            lam = np.minimum(1.0, (pasted / points[order[pos]]).min(axis=-1))
            screened |= (totals - lam) + (1.0 - lam) <= tol
        for t, level in np.argwhere(~screened).tolist():
            hull_tests += 1
            member, _, residual = hull_membership(points, pasted[t, level], tol)
            if not member:
                gens = ms.generators
                return StabilityReport(
                    stable=False,
                    witness=paste(gens[a], gens[tails[t]], f, level),
                    witness_residual=residual,
                    pastings_checked=(a * (k - 1) + t) * n_levels + level + 1,
                    hull_tests=hull_tests,
                )
    return StabilityReport(
        stable=True,
        witness=None,
        witness_residual=0.0,
        pastings_checked=k * (k - 1) * n_levels,
        hull_tests=hull_tests,
    )


@dataclass(frozen=True)
class RecursivityReport:
    lhs: RandomVariable
    rhs: RandomVariable
    equal: bool
    max_abs_gap: float


def recursivity_check(
    ms: MeasureSet,
    f: Filtration,
    xi: RandomVariable,
    sigma_level: int,
    tau_level: int,
    tol: float = 1e-9,
) -> RecursivityReport:
    """Compare the one-shot upper envelope at sigma with the two-stage one
    through tau; they agree whenever the set passes the stability check."""
    if not 0 <= sigma_level <= tau_level < len(f.levels):
        raise ArgumentError(
            f"need 0 <= sigma <= tau < {len(f.levels)}, got ({sigma_level}, {tau_level})"
        )
    lhs = ess_sup_conditional(ms, xi, f.levels[sigma_level])
    inner = ess_sup_conditional(ms, xi, f.levels[tau_level])
    rhs = ess_sup_conditional(ms, inner, f.levels[sigma_level])
    gap = float(np.max(np.abs(lhs.values - rhs.values)))
    return RecursivityReport(lhs=lhs, rhs=rhs, equal=gap <= tol, max_abs_gap=gap)


@dataclass(frozen=True)
class TcCounterexample:
    """An instance where estimating in two stages disagrees with one stage."""

    measure_set: MeasureSet
    xi: RandomVariable
    filtration: Filtration
    eta_fine: RandomVariable  # estimator w.r.t. the fine level
    eta_chain: RandomVariable  # fine estimator re-estimated at the coarse level
    eta_direct: RandomVariable  # one-shot estimator at the coarse level
    gap: float
    trial_index: int
    seed: int


DEFAULT_TCSEARCH_SEED = 20250801
TCSEARCH_GAP = 1e-3  # sup-norm mismatch that counts as a hit
TCSEARCH_MAX_POINTS = 8  # trials draw 4..TCSEARCH_MAX_POINTS sample points


def mmse_time_consistency_search(
    seed: int = DEFAULT_TCSEARCH_SEED,
    trials: int = 1000,
) -> TcCounterexample | None:
    """Randomized search for a two-stage versus one-stage estimation mismatch.

    Draws small proper instances on a dyadic rational grid (so hits replay
    exactly from their serialized form), estimates through the fine level and
    re-estimates at the coarse level, and returns the first trial whose
    sup-norm mismatch against the direct coarse estimate exceeds
    TCSEARCH_GAP. Returns None when no trial hits, which is a report, not a
    proof of consistency.
    """
    if trials < 1:
        raise ArgumentError("trials must be at least 1")
    rng = rng_from_seed(seed)
    for trial in range(trials):
        n = int(rng.integers(4, TCSEARCH_MAX_POINTS + 1))
        space = SampleSpace.of_size(n)
        f = random_two_level_filtration(rng, space)
        ms = random_measure_set(rng, space, int(rng.integers(2, 5)))
        xi = random_variable(rng, space)
        coarse, fine = f.levels[1], f.levels[2]

        fine_res = solve_mmse(ms, xi, fine)
        chain_res = solve_mmse(ms, fine_res.eta_hat, coarse)
        direct_res = solve_mmse(ms, xi, coarse)
        if not (fine_res.converged and chain_res.converged and direct_res.converged):
            continue
        gap = float(
            np.max(np.abs(chain_res.eta_hat.values - direct_res.eta_hat.values))
        )
        if gap > TCSEARCH_GAP:
            return TcCounterexample(
                measure_set=ms,
                xi=xi,
                filtration=f,
                eta_fine=fine_res.eta_hat,
                eta_chain=chain_res.eta_hat,
                eta_direct=direct_res.eta_hat,
                gap=gap,
                trial_index=trial,
                seed=int(seed),
            )
    return None


def replay_counterexample(
    ms: MeasureSet,
    xi: RandomVariable,
    f: Filtration,
    cfg: SolverConfig | None = None,
) -> tuple[RandomVariable, RandomVariable, float]:
    """Recompute both estimator chains of a serialized counterexample."""
    cfg = cfg or SolverConfig()
    coarse, fine = f.levels[1], f.levels[2]
    eta_fine = solve_mmse(ms, xi, fine, cfg).eta_hat
    eta_chain = solve_mmse(ms, eta_fine, coarse, cfg).eta_hat
    eta_direct = solve_mmse(ms, xi, coarse, cfg).eta_hat
    gap = float(np.max(np.abs(eta_chain.values - eta_direct.values)))
    return eta_chain, eta_direct, gap
