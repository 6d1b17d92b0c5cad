"""Worst-case expectation over a measure set and its conditional envelopes.

rho(x) = max over generators of E_g[x]; since the integrand is linear in the
measure, the hull adds nothing and the max over generators equals the sup
over the whole represented set. rho is that number alone, from a support
query that lists no ties; the argmax and the near ties the `rho` command
reports come from its own query (cli.cmd_rho). Every function here reads the
set through its queries (measures.SetQueries) alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ArgumentError
from .measures import SetQueries
from .spaces import VALUE_TOL, PartitionAlgebra, RandomVariable, check_same_space


def rho(ms: SetQueries, x: RandomVariable) -> float:
    """The largest expectation of x over the generators: one support query
    that lists no ties, so on a tree one sup sweep, whatever its corner count."""
    check_same_space(ms, x)
    return ms.support(x.values, -np.inf)[0]


def conditional_envelopes(
    ms: SetQueries, x: RandomVariable, c: PartitionAlgebra
) -> tuple[RandomVariable, RandomVariable]:
    """(ess_inf_conditional, ess_sup_conditional) from the set's envelopes
    query, which a TreeModel answers at its level partitions only: per block,
    the blockwise essential inf and sup over the full hull, since the hull's
    conditional mean on a block is a weighted average of the conditional means
    of the generators charging it (the others are excluded exactly)."""
    check_same_space(ms, x, c)
    ((lower, upper),) = ms.envelopes(x.values, [c])
    return c.broadcast(lower), c.broadcast(upper)


def ess_sup_conditional(
    ms: SetQueries, x: RandomVariable, c: PartitionAlgebra
) -> RandomVariable:
    """The upper conditional envelope, blockwise max of the generators' conditional means."""
    return conditional_envelopes(ms, x, c)[1]


def ess_inf_conditional(
    ms: SetQueries, x: RandomVariable, c: PartitionAlgebra
) -> RandomVariable:
    """The lower conditional envelope, blockwise min of the generators' conditional means."""
    return conditional_envelopes(ms, x, c)[0]


def holder_bound(
    ms: SetQueries,
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
    lhs = rho(ms, RandomVariable(ms.space, np.abs(x1.values * x2.values)))
    rp = rho(ms, RandomVariable(ms.space, np.abs(x1.values) ** p))
    rq = rho(ms, RandomVariable(ms.space, np.abs(x2.values) ** q))
    rhs = rp ** (1.0 / p) * rq ** (1.0 / q)
    return lhs, rhs


class AxiomViolation(NamedTuple):
    axiom: str
    detail: str
    lhs: float
    rhs: float


class AxiomReport(NamedTuple):
    checks: int
    violations: tuple[AxiomViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def axiom_suite(
    ms: SetQueries,
    samples,
    scalars=(0.0, 0.5, 1.0, 2.0),
) -> AxiomReport:
    """Check the four sublinearity axioms on the supplied variables and scalars.

    Monotone pairs are built from the samples (x vs pointwise max); every
    violation is reported with its witnesses. An inequality holds to VALUE_TOL
    times the largest unit of the variables it compares (max(1, lambda) *
    x.unit for lambda * x against x). Negative scalars are skipped.
    """
    samples = list(samples)
    violations = []
    checks = 0

    def check(axiom, detail, lhs, rhs, unit, two_sided=False):
        nonlocal checks
        checks += 1
        if (abs(lhs - rhs) if two_sided else lhs - rhs) > VALUE_TOL * unit:
            violations.append(AxiomViolation(axiom, detail, float(lhs), float(rhs)))

    for c in scalars:
        const = RandomVariable(ms.space, np.full(ms.space.n, float(c)))
        v = rho(ms, const)
        check("constant_preserving", f"rho({c}) = {v}", v, c, const.unit, two_sided=True)

    values = [rho(ms, x) for x in samples]
    for i, (x, rx) in enumerate(zip(samples, values)):
        for j in range(i + 1, len(samples)):
            y, ry = samples[j], values[j]
            upper = RandomVariable(ms.space, np.maximum(x.values, y.values))
            ru = rho(ms, upper)
            check("monotonicity", f"samples ({i}, max({i},{j}))", rx, ru, max(x.unit, upper.unit))
            check("monotonicity", f"samples ({j}, max({i},{j}))", ry, ru, max(y.unit, upper.unit))
            total = x + y
            unit = max(x.unit, y.unit, total.unit)
            check("subadditivity", f"samples ({i},{j})", rho(ms, total), rx + ry, unit)
        for lam in scalars:
            if lam < 0:
                continue
            rl, unit = rho(ms, x * lam), max(1.0, lam) * x.unit
            detail = f"sample {i}, lambda={lam}"
            check("positive_homogeneity", detail, rl, lam * rx, unit, two_sided=True)

    return AxiomReport(checks=checks, violations=tuple(violations))
