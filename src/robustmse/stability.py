"""Pasting of measures along a filtration, stability of measure sets, and a
randomized search for time-consistency failures of the worst-case estimator.

Stability is checked on the finite family of generator pairs pasted at whole
filtration levels, so the verdict is labeled "generator-pasting". Passing it
is necessary for stability, not sufficient: a pasting on a single block of a
level can leave the hull while every whole-level pasting stays inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, PastingDegeneracyError, PropernessError
from .estimator import solve_mmse
from .measures import Measure, MeasureSet
from .randgen import (
    random_measure_set,
    random_two_level_filtration,
    random_variable,
    rng_from_seed,
)
from .simplexlp import HULL_TOL, hull_membership
from .spaces import VALUE_TOL, Filtration, RandomVariable, SampleSpace, check_same_space
from .sublinear import ess_sup_conditional


@dataclass(frozen=True)
class PastedMeasure:
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
    if not 0 <= level < len(f.levels):
        raise ArgumentError(f"level {level} out of range 0..{len(f.levels) - 1}")
    algebra = f.levels[level]
    base = algebra.block_sums(q0.weights)[algebra.labels]
    tail = algebra.block_sums(q.weights)[algebra.labels]
    degenerate = (base > 0.0) & (tail == 0.0)
    if np.any(degenerate):
        raise PastingDegeneracyError(algebra.blocks[algebra.labels[np.argmax(degenerate)]])
    out = _splice(base, tail, q.weights)
    out.flags.writeable = False
    return PastedMeasure(base=q0, tail=q, switch_level=level, result=Measure._of_row(q0.space, out))


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    witness: PastedMeasure | None
    witness_residual: float
    pastings_checked: int
    hull_tests: int  # pastings sent to the hull LP; the rest were certified
    scope: str = "generator-pasting"


def _mass_left(b, fit):
    """Phase-1 mass that the hull LP for the target b = [p; 1] has left at the
    largest multiple theta * fit that fits under b.

    fit is A @ mu for the LP's matrix A (columns [g_k; 1]) and some mu >= 0,
    so theta * mu is feasible for phase 1, whose objective there,
    sum(b - theta * fit), bounds the phase-1 optimum from above: when it is
    at most tol, the LP would answer "member". A NaN (fit == 0) certifies
    nothing. The last axis runs over the rows of A; the rest broadcast."""
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (b / fit).min(axis=-1)
        return b.sum(axis=-1) - theta * fit.sum(axis=-1)


BATCH_CELLS = 1 << 16  # floats in one batch of pastings or of face fits, 512 KiB


def _on_faces(b, cols, pinv, tol):
    """Which targets b (m, n + 1) = [p; 1] some face certifies.

    A face is a set S of generators: cols[f] (w, n + 1) holds its columns
    [g_k; 1] as rows, zero-padded to w, and pinv (n + 1, F * w) the
    transposed pseudo-inverses, face after face. Each face's point is its
    least-squares weights clipped at 0, fitted as `_mass_left` fits it. The
    targets go in batches of at most BATCH_CELLS floats of fits."""
    faces, width, n_rows = cols.shape
    step = max(1, BATCH_CELLS // (faces * n_rows))
    out = np.zeros(len(b), dtype=bool)
    for start in range(0, len(b), step):
        rows = b[start : start + step]
        mu = np.maximum(rows @ pinv, 0.0).reshape(len(rows), faces, width)
        fits = np.matmul(mu.transpose(1, 0, 2), cols)
        out[start : start + step] = np.any(_mass_left(rows, fits) <= tol, axis=0)
    return out


def is_stable(ms: MeasureSet, f: Filtration, tol: float = HULL_TOL) -> StabilityReport:
    """Paste every ordered generator pair at every level and test hull membership.

    This is necessary for stability, not sufficient: a pasting on a single
    block of a level (one generator's tail inside it, another's law outside)
    can leave the hull while every whole-level pasting stays inside.

    The pastings of a batch of base generators (each with every tail, at
    every level) are formed as one array by the splice `paste` uses. A
    pasting p is a member, without an LP, when a face of the hull certifies
    it (`_mass_left` at most tol). The faces tried are, first, the single
    generators next to p along a fixed direction (two candidates from a
    sort), then the support of every hull LP that has answered "member" so
    far in this call. The pastings still pending go to `hull_membership`, in
    (base index, tail index, level) order, and hull_tests counts them; after
    each LP the face it found is tried on the rest of the base's pending
    pastings. A certificate only ever stands in for an LP that would have
    answered "member", so verdict, witness and pastings_checked are those of
    one LP per pasting. The witness, when present, is the first failing
    pasting in that order, built by `paste`, together with how far outside
    the hull the feasibility LP left it, and pastings_checked counts the
    pastings up to it.
    """
    check_same_space(ms, f.levels[0])
    if np.any(ms.weights_matrix <= 0.0):
        raise PropernessError("stability check requires strictly positive generators")
    points = ms.weights_matrix
    k, n_levels = len(points), len(f.levels)
    # masses[b, l, i]: generator b's mass of the level-l block containing
    # point i, summed one row at a time as paste sums it (a batched
    # block_sums rounds differently in the last bits)
    masses = np.array([[lev.block_sums(row)[lev.labels] for lev in f.levels] for row in points])
    # the hull LP's columns [g_k; 1], one row each
    ext = np.hstack([points, np.ones((k, 1))])
    # a pasting equal to a generator has its key along a fixed generic
    # direction, so it lands next to that generator in the sorted keys
    direction = 1.0 / np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    keys = points @ direction
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # faces learned from the LPs, padded to the largest possible support,
    # len(ext[0]), since the simplex returns a basic solution
    width = ext.shape[1]
    face_cols = np.zeros((0, width, width))
    face_pinv = np.zeros((width, 0))
    hull_tests = 0
    step = max(1, BATCH_CELLS // (k * n_levels * width))
    for first in range(0, k, step):
        bases = np.arange(first, min(first + step, k))
        # each base of the batch pasted with every generator as its tail
        pasted = _splice(masses[bases, None], masses[None], points[None, :, None])
        b = np.concatenate([pasted, np.ones(pasted.shape[:-1] + (1,))], axis=-1)
        right = np.searchsorted(sorted_keys, pasted @ direction)
        # the two generators next to a pasting in the sort are faces of one
        # generator, whose least-squares point is the generator itself
        near = order[[np.maximum(right - 1, 0), np.minimum(right, k - 1)]]
        screened = np.any(_mass_left(b, ext[near]) <= tol, axis=0)
        for a, base_screened, base_b in zip(bases.tolist(), screened, b):
            pending = np.argwhere(~base_screened)
            targets = base_b[pending[:, 0], pending[:, 1]]
            if len(face_cols):
                keep = ~_on_faces(targets, face_cols, face_pinv, tol)
                pending, targets = pending[keep], targets[keep]
            certified = np.zeros(len(pending), dtype=bool)
            for j, (t, level) in enumerate(pending.tolist()):
                if certified[j]:
                    continue
                hull_tests += 1
                member, mu, residual = hull_membership(points, targets[j, :-1], tol)
                if not member:
                    gens = ms.generators
                    return StabilityReport(
                        stable=False,
                        witness=paste(gens[a], gens[t], f, level),
                        witness_residual=residual,
                        pastings_checked=(a * (k - 1) + t - (t > a)) * n_levels + level + 1,
                        hull_tests=hull_tests,
                    )
                face = ext[mu > 0.0]  # its rows are independent: mu is a basic solution
                try:  # the face's pseudo-inverse, transposed, from its normal equations
                    weights = np.linalg.solve(face @ face.T, face)
                except np.linalg.LinAlgError:  # singular in floating point: no face
                    continue
                cols = np.zeros((1, width, width))
                cols[0, : len(face)] = face
                pinv = np.zeros((width, width))
                pinv[:, : len(face)] = weights.T
                face_cols = np.concatenate([face_cols, cols])
                face_pinv = np.hstack([face_pinv, pinv])
                certified[j + 1 :] |= _on_faces(targets[j + 1 :], cols, pinv, tol)
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
    tol: float = VALUE_TOL,
) -> RecursivityReport:
    """Compare the one-shot upper envelope at sigma with the two-stage one
    through tau, equal within tol * xi.unit. They agree on a stable set;
    `is_stable` passing is not enough, since it pastes whole generators at
    whole levels only."""
    if not 0 <= sigma_level <= tau_level < len(f.levels):
        raise ArgumentError(
            f"need 0 <= sigma <= tau < {len(f.levels)}, got ({sigma_level}, {tau_level})"
        )
    lhs = ess_sup_conditional(ms, xi, f.levels[sigma_level])
    inner = ess_sup_conditional(ms, xi, f.levels[tau_level])
    rhs = ess_sup_conditional(ms, inner, f.levels[sigma_level])
    gap = float(np.max(np.abs(lhs.values - rhs.values)))
    return RecursivityReport(lhs=lhs, rhs=rhs, equal=gap <= tol * xi.unit, max_abs_gap=gap)


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
                seed=int(seed),
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
