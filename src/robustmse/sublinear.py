"""Worst-case expectation over a measure set and its conditional envelopes.

rho(x) = max over generators of E_g[x]; since the integrand is linear in the
measure, the hull adds nothing and the max over generators equals the sup
over the whole represented set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArgumentError, ZeroMassBlockError
from .measures import MeasureSet
from .spaces import PartitionAlgebra, RandomVariable, check_same_space

if TYPE_CHECKING:
    from .gexp import TreeModel

TIE_TOL = 1e-9


@dataclass(frozen=True)
class RhoValue:
    value: float
    argmax_generator: int
    ties: tuple[int, ...]


def rho(ms: MeasureSet | TreeModel, x: RandomVariable, tie_tol: float = TIE_TOL) -> RhoValue:
    """Maximum expectation over the generators, with deterministic tie-breaking.

    argmax_generator is the smallest maximizing index; ties lists every index
    attaining the max within tie_tol. The set answers both (support,
    near_ties): a MeasureSet from its weight matrix, a TreeModel for its
    corner set by recursion, with corners indexed as in tree_measure_set.
    """
    check_same_space(ms, x)
    value, best = ms.support(x.values)
    return RhoValue(value=value, argmax_generator=best, ties=ms.near_ties(x.values, tie_tol))


def _conditional_means(ms, x, c) -> np.ndarray:
    """The (K, B) table of generator conditional means; a generator that
    gives a block zero mass is NaN there, so the reductions skip it."""
    check_same_space(ms, x, c)
    mass = c.block_sums(ms.weights_matrix)
    live = mass > 0.0
    dead = ~live.any(axis=0)
    if np.any(dead):
        b = c.blocks[int(np.argmax(dead))]
        raise ZeroMassBlockError(b, f"no generator charges block {b}")
    weighted = c.block_sums(ms.weights_matrix * x.values)
    return np.divide(weighted, mass, out=np.full_like(mass, np.nan), where=live)


def ess_sup_conditional(
    ms: MeasureSet, x: RandomVariable, c: PartitionAlgebra
) -> RandomVariable:
    """Blockwise max of conditional means over generators charging the block.

    Equals the blockwise essential supremum over the full hull: on a block the
    hull's conditional mean is a weighted average of generator conditionals, so
    the extremes are attained at generators (zero-mass generators contribute
    no conditional value there and are excluded exactly, not approximately).
    """
    return c.broadcast(np.nanmax(_conditional_means(ms, x, c), axis=0))


def ess_inf_conditional(
    ms: MeasureSet, x: RandomVariable, c: PartitionAlgebra
) -> RandomVariable:
    """Mirror of ess_sup_conditional with min."""
    return c.broadcast(np.nanmin(_conditional_means(ms, x, c), axis=0))


def conditional_envelopes(
    ms: MeasureSet, x: RandomVariable, c: PartitionAlgebra
) -> tuple[RandomVariable, RandomVariable]:
    """(ess_inf_conditional, ess_sup_conditional) from one table of means."""
    means = _conditional_means(ms, x, c)
    return c.broadcast(np.nanmin(means, axis=0)), c.broadcast(np.nanmax(means, axis=0))


def holder_bound(
    ms: MeasureSet,
    x1: RandomVariable,
    x2: RandomVariable,
    p: float,
    q: float,
) -> tuple[float, float]:
    """(lhs, rhs) of the conjugate-exponent product bound; lhs <= rhs holds.

    lhs = rho(|x1*x2|), rhs = rho(|x1|^p)^(1/p) * rho(|x2|^q)^(1/q).
    """
    if not (p > 1.0 and q > 1.0):
        raise ArgumentError("exponents must lie in (1, inf)")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ArgumentError(f"exponents p={p}, q={q} are not conjugate")
    check_same_space(ms, x1, x2)
    lhs = rho(ms, RandomVariable(ms.space, np.abs(x1.values * x2.values))).value
    rp = rho(ms, RandomVariable(ms.space, np.abs(x1.values) ** p)).value
    rq = rho(ms, RandomVariable(ms.space, np.abs(x2.values) ** q)).value
    rhs = rp ** (1.0 / p) * rq ** (1.0 / q)
    return lhs, rhs


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    detail: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomReport:
    checks: int
    violations: tuple[AxiomViolation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def axiom_suite(
    ms: MeasureSet,
    samples,
    scalars=(0.0, 0.5, 1.0, 2.0),
    tol: float = 1e-10,
) -> AxiomReport:
    """Check the four sublinearity axioms on the supplied variables and scalars.

    Monotone pairs are built from the samples (x vs pointwise max); every
    violation is reported with its witnesses.
    """
    samples = list(samples)
    violations = []
    checks = 0

    def record(axiom, detail, lhs, rhs):
        violations.append(AxiomViolation(axiom, detail, float(lhs), float(rhs)))

    for c in scalars:
        checks += 1
        const = RandomVariable(ms.space, np.full(ms.space.n, float(c)))
        v = rho(ms, const).value
        if abs(v - c) > tol:
            record("constant_preserving", f"rho({c}) = {v}", v, c)

    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if j <= i:
                continue
            checks += 3
            upper = RandomVariable(ms.space, np.maximum(x.values, y.values))
            rx, ry, ru = rho(ms, x).value, rho(ms, y).value, rho(ms, upper).value
            if rx > ru + tol:
                record("monotonicity", f"samples ({i}, max({i},{j}))", rx, ru)
            if ry > ru + tol:
                record("monotonicity", f"samples ({j}, max({i},{j}))", ry, ru)
            rsum = rho(ms, x + y).value
            if rsum > rx + ry + tol:
                record("subadditivity", f"samples ({i},{j})", rsum, rx + ry)
        for lam in scalars:
            if lam < 0:
                continue
            checks += 1
            scale = max(1.0, abs(lam))
            rl = rho(ms, x * lam).value
            rx = rho(ms, x).value
            if abs(rl - lam * rx) > tol * scale:
                record("positive_homogeneity", f"sample {i}, lambda={lam}", rl, lam * rx)

    return AxiomReport(checks=checks, violations=tuple(violations))
