"""Probability measures, finite-generator measure sets and conditional expectations.

A MeasureSet lists finitely many generator measures; the set it represents is
their convex hull. Every functional this package maximizes over the set is
linear in the measure, so the sup over the hull is attained at a generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    ArgumentError,
    StructuralError,
    ZeroMassBlockError,
)
from .spaces import (
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    _frozen_array,
    check_same_space,
)

SIMPLEX_TOL = 1e-12


def _checked_rows(space: SampleSpace, rows: np.ndarray) -> np.ndarray:
    """Validate a float (K, n) array as K probability vectors on space.

    Every row sum must lie within SIMPLEX_TOL of 1; rows are then divided by
    their sum in place, which leaves rows summing to exactly 1 unchanged. The
    array is returned read-only.
    """
    if rows.ndim != 2 or rows.shape[1] != space.n:
        raise StructuralError(f"expected rows of {space.n} weights, got shape {rows.shape}")
    if len(rows) == 0:
        raise ArgumentError("expected at least one row of weights")
    if not rows.min() >= 0:  # also catches NaN
        raise ArgumentError("measure weights must be nonnegative numbers")
    totals = rows.sum(axis=1, keepdims=True)
    if abs(totals - 1.0).max() > SIMPLEX_TOL:
        worst = totals.flat[abs(totals - 1.0).argmax()]
        raise ArgumentError(f"weights sum to {worst!r}, not 1")
    rows /= totals  # exact, bit for bit, on rows that sum to 1
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability vector; weights are renormalized exactly after validation."""

    space: SampleSpace
    weights: np.ndarray = field(repr=False)

    def __init__(self, space, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 1:
            raise StructuralError(f"expected {space.n} weights, got shape {w.shape}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", _checked_rows(space, w[None, :])[0])

    @classmethod
    def _of_row(cls, space: SampleSpace, row: np.ndarray) -> "Measure":
        """Wrap an already validated read-only row without copying it."""
        m = object.__new__(cls)
        object.__setattr__(m, "space", space)
        object.__setattr__(m, "weights", row)
        return m

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.space, self.weights.tobytes()))

    def mass(self, indices) -> float:
        return float(np.sum(self.weights[list(indices)]))


@dataclass(frozen=True, eq=False)
class MeasureSet:
    """A nonempty generator list whose convex hull is the represented set.

    The generators are stored as the rows of one read-only (K, n) array;
    `generators` wraps those rows as Measure objects on first use.
    """

    space: SampleSpace
    weights_matrix: np.ndarray = field(repr=False)

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ArgumentError("a measure set needs at least one generator")
        space = check_same_space(*generators)
        # Measure rows are already validated and renormalized; a second
        # division by their sum could move their last bit
        rows = np.stack([g.weights for g in generators])
        rows.flags.writeable = False
        self._store(space, rows)
        self.__dict__["generators"] = generators

    @classmethod
    def from_matrix(cls, space: SampleSpace, weights) -> "MeasureSet":
        """The set whose generators are the rows of a (K, n) weight array.

        Each row is validated like a Measure; the array is copied.
        """
        rows = _checked_rows(space, np.array(weights, dtype=float, order="C"))
        ms = object.__new__(cls)
        ms._store(space, rows)
        return ms

    def _store(self, space, rows):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights_matrix", rows)

    @cached_property
    def generators(self) -> tuple[Measure, ...]:
        return tuple(Measure._of_row(self.space, row) for row in self.weights_matrix)

    def __eq__(self, other):
        if not isinstance(other, MeasureSet):
            return NotImplemented
        return self.space == other.space and np.array_equal(
            self.weights_matrix, other.weights_matrix
        )

    def __hash__(self):
        return hash((self.space, self.weights_matrix.tobytes()))

    def __len__(self):
        return len(self.weights_matrix)

    # the set's queries; a TreeModel answers the same ones by recursion

    def num_generators(self) -> int:
        return len(self.weights_matrix)

    def support(self, v) -> tuple[float, int]:
        """max over generators g of E_g[v], and the smallest index attaining it."""
        top = self.weights_matrix @ v
        k = int(np.argmax(top))  # np.argmax returns the smallest maximizing index
        return float(top[k]), k

    def near_ties(self, v, tie_tol: float) -> tuple[int, ...]:
        """Every generator g with max_g' E_g'[v] - E_g[v] <= tie_tol, in index order."""
        top = self.weights_matrix @ v
        return tuple(int(k) for k in np.flatnonzero(top >= top.max() - tie_tol))

    def rows(self, ks) -> np.ndarray:
        """The weight rows of generators ks."""
        return self.weights_matrix[ks]

    def mean_row(self) -> np.ndarray:
        """The weight row of the uniform mixture of the generators."""
        return self.weights_matrix.mean(axis=0)


@dataclass(frozen=True, eq=False)
class MixtureWeights:
    """Simplex coordinates over the generator list of a MeasureSet."""

    lam: np.ndarray = field(repr=False)

    def __init__(self, lam):
        lam = np.array(lam, dtype=float)
        if lam.ndim != 1 or len(lam) == 0:
            raise ArgumentError("mixture weights must be a nonempty vector")
        if np.any(lam < -SIMPLEX_TOL):
            raise ArgumentError("mixture weights must be nonnegative")
        total = lam.sum()
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ArgumentError(f"mixture weights sum to {total!r}, not 1")
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        object.__setattr__(self, "lam", _frozen_array(lam))

    def __eq__(self, other):
        if not isinstance(other, MixtureWeights):
            return NotImplemented
        return np.array_equal(self.lam, other.lam)

    def __len__(self):
        return len(self.lam)


def expectation(p: Measure, x: RandomVariable) -> float:
    check_same_space(p, x)
    return float(np.dot(p.weights, x.values))


def conditional_expectation(
    p: Measure, x: RandomVariable, c: PartitionAlgebra
) -> RandomVariable:
    """Blockwise average of x under p, broadcast back to the sample points.

    Raises ZeroMassBlockError on the first block p does not charge.
    """
    check_same_space(p, x, c)
    mass = c.block_sums(p.weights)
    dead = mass <= 0.0
    if np.any(dead):
        raise ZeroMassBlockError(c.blocks[int(np.argmax(dead))])
    return c.broadcast(c.block_sums(p.weights * x.values) / mass)


def mix(ms: MeasureSet, w: MixtureWeights) -> Measure:
    """The convex combination of the generators with the given simplex weights."""
    if len(w) != len(ms):
        raise ArgumentError(
            f"{len(w)} mixture weights for {len(ms)} generators"
        )
    return Measure(ms.space, w.lam @ ms.weights_matrix)


def reference_measure(ms: MeasureSet) -> Measure:
    """Uniform mixture of the generators; dominates every element of the hull."""
    return Measure(ms.space, ms.mean_row())


def is_proper(ms: MeasureSet) -> bool:
    """True iff every generator charges every point charged by the reference.

    On a finite hull this is mutual equivalence of all elements with the
    reference measure: no generator may kill a point another one charges.
    """
    charged = ms.weights_matrix.sum(axis=0) > 0.0
    return bool(np.all(ms.weights_matrix[:, charged] > 0.0))


def density(p: Measure, p0: Measure) -> RandomVariable:
    """Pointwise dP/dP0 with the 0/0 := 0 convention."""
    check_same_space(p, p0)
    bad = (p0.weights == 0.0) & (p.weights > 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AbsoluteContinuityError(
            f"measure charges point {p.space.labels[i]} which the reference does not"
        )
    out = np.zeros(p.space.n)
    pos = p0.weights > 0.0
    out[pos] = p.weights[pos] / p0.weights[pos]
    return RandomVariable(p.space, out)
