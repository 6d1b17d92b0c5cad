"""Pasting along a filtration, stability of measure sets, the kernel band, and a
randomized search for time-consistency failures of the worst-case estimator.

Stability is checked on the finite family of generator pairs pasted at whole
filtration levels, so the verdict is labeled "generator-pasting". Passing it
is necessary for stability, not sufficient: a pasting on a single block of a
level can leave the hull while every whole-level pasting stays inside.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, PastingDegeneracyError, PropernessError
from .estimator import solve_mmse
from .measures import Measure, MeasureSet, SetQueries
from .randgen import random_measure_set, random_two_level_filtration, random_variable, rng_from_seed
from . import simplexlp
from .spaces import (
    VALUE_TOL, Filtration, PartitionAlgebra, RandomVariable, SampleSpace, as_int, check_same_space
)
from .sublinear import conditional_envelopes


class PastedMeasure(NamedTuple):
    base: Measure
    tail: Measure
    switch_level: int
    result: Measure


def _splice(base, tail, weights):
    """Pasted weights: each tail row in weights, rescaled at every point from
    the tail's mass of its block to the base's (0 where the base's is 0), then
    divided by its sum as Measure divides it. The last axis is the space."""
    scale = np.zeros(np.broadcast_shapes(np.shape(base), np.shape(tail)))
    out = np.divide(base, tail, out=scale, where=base > 0.0) * weights
    out /= out.sum(axis=-1, keepdims=True)
    return out


def paste(q0: Measure, q: Measure, f: Filtration, level: int) -> PastedMeasure:
    """Splice q0's mass at the switch level with q's conditional law beyond it.

    result[i] = q0(B_i) * q[i] / q(B_i) with B_i the level block containing i;
    blocks q0 does not charge stay at zero, and a block charged by q0 but not
    by q is a degeneracy (the conditional law to splice does not exist there).
    """
    check_same_space(q0, q, f.levels[0])
    level = as_int(level, "switch level")
    if not 0 <= level < len(f.levels):
        raise ArgumentError(f"level {level} out of range 0..{len(f.levels) - 1}")
    algebra = f.levels[level]
    base, tail = algebra.block_sums(np.stack((q0.weights, q.weights)))[:, algebra.labels]
    degenerate = (base > 0.0) & (tail == 0.0)
    if np.any(degenerate):
        raise PastingDegeneracyError(algebra.blocks[algebra.labels[np.argmax(degenerate)]])
    out = _splice(base, tail, q.weights)
    out.flags.writeable = False
    return PastedMeasure(base=q0, tail=q, switch_level=level, result=Measure._of_row(q0.space, out))


class StabilityReport(NamedTuple):
    stable: bool
    witness: PastedMeasure | None
    witness_residual: float
    pastings_checked: int
    hull_tests: int  # pastings the hull LP decided; the screen passed the rest


def is_stable(ms: MeasureSet, f: Filtration) -> StabilityReport:
    """Paste every ordered generator pair at every level and test hull membership.

    This is necessary for stability, not sufficient: a pasting on a single
    block of a level (one generator's tail inside it, another's law outside)
    can leave the hull while every whole-level pasting stays inside.

    The pastings of as many bases as fit in simplexlp.BATCH_CELLS floats, each
    with every tail at every level, are formed as one array by `paste`'s
    splice. A pasting that one of the two generators next to it along a
    fixed direction certifies (`simplexlp.column_certifies`) is a member
    without an LP. The rest go, in (base, tail, level) order, to
    `first_outside`; hull_tests counts those it decides, up to and including
    the witness. So verdict, witness (built by `paste`), residual and
    pastings_checked are those of one `hull_membership` per pasting."""
    check_same_space(ms, f.levels[0])
    if np.any(ms.weights_matrix <= 0.0):
        raise PropernessError("stability check requires strictly positive generators")
    points = ms.weights_matrix
    k, n_levels = len(points), len(f.levels)
    # masses[b, l, i]: generator b's mass of the level-l block containing point i
    masses = np.stack([lev.block_sums(points)[:, lev.labels] for lev in f.levels], axis=1)
    # the hull LP's columns [g_k; 1], one row each
    ext = np.hstack([points, np.ones((k, 1))])
    # a pasting equal to a generator has its key along a fixed generic
    # direction, so it lands next to that generator in the sorted keys
    direction = 1.0 / np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    keys = points @ direction
    order = np.argsort(keys, kind="stable")
    hull_tests = 0
    step = max(1, simplexlp.BATCH_CELLS // (k * n_levels * ext.shape[1]))
    for first in range(0, k, step):
        # each base of the batch pasted with every generator as its tail
        pasted = _splice(masses[first : first + step, None], masses[None], points[None, :, None])
        b = np.concatenate([pasted, np.ones(pasted.shape[:-1] + (1,))], axis=-1)
        right = np.searchsorted(keys[order], pasted @ direction)
        near = order[[np.maximum(right - 1, 0), np.minimum(right, k - 1)]]
        pending = np.argwhere(~np.any(simplexlp.column_certifies(b, ext[near]), axis=0))
        outside = simplexlp.first_outside(points, pasted[tuple(pending.T)])
        if outside is None:
            hull_tests += len(pending)
            continue
        j, residual = outside
        a, t, level = (pending[j] + [first, 0, 0]).tolist()
        gens = ms.generators
        return StabilityReport(
            stable=False, witness=paste(gens[a], gens[t], f, level), witness_residual=residual,
            pastings_checked=(a * (k - 1) + t - (t > a)) * n_levels + level + 1,
            hull_tests=hull_tests + j + 1,
        )
    return StabilityReport(
        stable=True, witness=None, witness_residual=0.0,
        pastings_checked=k * (k - 1) * n_levels, hull_tests=hull_tests,
    )


class KernelInterval(NamedTuple):
    lower: RandomVariable
    upper: RandomVariable


def kernel_interval(
    ms: SetQueries, xi: RandomVariable, c: PartitionAlgebra
) -> KernelInterval:
    """The band between the conditional envelopes (on a tree, at a level partition).

    Equals the kernel when the measure set is stable along a filtration
    containing c; otherwise it is only an outer description. Whether the set
    is stable is not decided here: is_stable's verdict is only necessary.
    """
    return KernelInterval(*conditional_envelopes(ms, xi, c))


class RecursivityReport(NamedTuple):
    equal: bool
    max_abs_gap: float


def recursivity_check(
    ms: MeasureSet, f: Filtration, xi: RandomVariable, sigma_level: int, tau_level: int,
) -> RecursivityReport:
    """Compare the one-shot upper envelope at sigma with the two-stage one
    through tau, equal within VALUE_TOL * xi.unit. They agree on a stable set;
    `is_stable` passing is not enough, since it pastes whole generators at
    whole levels only."""
    sigma_level, tau_level = as_int(sigma_level, "sigma level"), as_int(tau_level, "tau level")
    if not 0 <= sigma_level <= tau_level < len(f.levels):
        raise ArgumentError(
            f"need 0 <= sigma <= tau < {len(f.levels)}, got ({sigma_level}, {tau_level})"
        )
    check_same_space(ms, xi, f.levels[0])
    sigma, tau = f.levels[sigma_level], f.levels[tau_level]
    ((_, upper),) = ms.envelopes(xi.values, [tau])
    ((_, (lhs, rhs)),) = ms.envelopes(np.stack((xi.values, upper[tau.labels])), [sigma])
    return _recursivity(lhs, rhs, VALUE_TOL * xi.unit)


def recursivity_grid(ms: MeasureSet, f: Filtration, xi: RandomVariable):
    """`recursivity_check` for every 0 <= sigma <= tau, keyed (sigma, tau) in
    that order, bit for bit: xi's upper envelopes at every level from one
    envelopes call, then at each sigma theirs at tau >= sigma from one more."""
    check_same_space(ms, xi, f.levels[0])
    uppers = [upper for _, upper in ms.envelopes(xi.values, f.levels)]
    on_points, bound = [u[c.labels] for u, c in zip(uppers, f.levels)], VALUE_TOL * xi.unit
    rhs = [ms.envelopes(np.stack(on_points[s:]), [c])[0][1] for s, c in enumerate(f.levels)]
    return {(s, t): _recursivity(uppers[s], rhs[s][t - s], bound)
            for s in range(len(uppers)) for t in range(s, len(uppers))}


def _recursivity(lhs, rhs, bound):
    """The pair verdict on two envelopes, per block of one level: equal within bound."""
    gap = float(np.abs(lhs - rhs).max())
    return RecursivityReport(equal=gap <= bound, max_abs_gap=gap)


class TcCounterexample(NamedTuple):
    """An instance where estimating in two stages disagrees with one stage."""

    measure_set: MeasureSet
    xi: RandomVariable
    filtration: Filtration
    eta_fine: RandomVariable  # estimator w.r.t. the fine level
    eta_chain: RandomVariable  # fine estimator re-estimated at the coarse level
    eta_direct: RandomVariable  # one-shot estimator at the coarse level
    gap: float
    trial_index: int


DEFAULT_TCSEARCH_SEED = 20250801
DEFAULT_TCSEARCH_TRIALS = 1000
TCSEARCH_GAP = 1e-3  # sup-norm mismatch that counts as a hit
TCSEARCH_MAX_POINTS = 8  # trials draw 4..TCSEARCH_MAX_POINTS sample points


def mmse_time_consistency_search(
    seed: int = DEFAULT_TCSEARCH_SEED,
    trials: int = DEFAULT_TCSEARCH_TRIALS,
) -> TcCounterexample | None:
    """Randomized search for a two-stage versus one-stage estimation mismatch.

    Draws small proper instances on a dyadic rational grid (so hits replay
    exactly from their serialized form), estimates through the fine level and
    re-estimates at the coarse level, and returns the first trial whose
    sup-norm mismatch against the direct coarse estimate exceeds
    TCSEARCH_GAP. Returns None when no trial hits, which is a report, not a
    proof of consistency.
    """
    seed, trials = as_int(seed, "seed"), as_int(trials, "trials")
    if trials < 1:
        raise ArgumentError("trials must be at least 1")
    if seed < 0:
        raise ArgumentError("seed must be nonnegative")
    rng = rng_from_seed(seed)
    for trial in range(trials):
        n = int(rng.integers(4, TCSEARCH_MAX_POINTS + 1))
        space = SampleSpace.of_size(n)
        f = random_two_level_filtration(rng, space)
        ms = random_measure_set(rng, space, int(rng.integers(2, 5)))
        xi = random_variable(rng, space)
        fine, chain, direct, gap = _chains(ms, xi, f)
        if fine.converged and chain.converged and direct.converged and gap > TCSEARCH_GAP:
            return TcCounterexample(
                measure_set=ms,
                xi=xi,
                filtration=f,
                eta_fine=fine.eta_hat,
                eta_chain=chain.eta_hat,
                eta_direct=direct.eta_hat,
                gap=gap,
                trial_index=trial,
            )
    return None


def _chains(ms, xi, f):
    """The fine estimator, its re-estimate at the coarse level, the direct
    coarse estimator, and the sup-norm gap between the last two."""
    coarse, fine = f.levels[1], f.levels[2]
    fine_res = solve_mmse(ms, xi, fine)
    chain_res = solve_mmse(ms, fine_res.eta_hat, coarse)
    direct_res = solve_mmse(ms, xi, coarse)
    gap = float(np.max(np.abs(chain_res.eta_hat.values - direct_res.eta_hat.values)))
    return fine_res, chain_res, direct_res, gap


def replay_counterexample(
    ms: MeasureSet, xi: RandomVariable, f: Filtration
) -> tuple[RandomVariable, RandomVariable, float]:
    """Recompute both estimator chains of a serialized counterexample."""
    _, chain, direct, gap = _chains(ms, xi, f)
    return chain.eta_hat, direct.eta_hat, gap
