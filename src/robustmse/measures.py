"""Probability measures, finite-generator measure sets and conditional expectations.

A MeasureSet lists finitely many generator measures; the set it represents is
their convex hull. Every functional this package maximizes over the set is
linear in the measure, so the sup over the hull is attained at a generator.
SetQueries names the queries through which the package reads a set, which
every kind of set answers its own way.
"""

from __future__ import annotations

from functools import cached_property
from typing import Protocol

import numpy as np

from .errors import ArgumentError, StructuralError
from .spaces import (
    Immutable,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    as_int,
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
        raise ArgumentError(f"weights sum to {float(worst)!r}, not 1")
    rows /= totals  # exact, bit for bit, on rows that sum to 1
    rows.flags.writeable = False
    return rows


class Measure(Immutable):
    """A probability vector; weights are renormalized exactly after validation."""

    space: SampleSpace
    weights: np.ndarray

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


BlockSolution = tuple[list[float], float, float, dict[int, float], int]


class SetQueries(Protocol):
    """A measure set as the package reads it: the convex hull of
    num_generators() generators on space, through these queries alone. rho,
    the envelopes, the estimator with its oracle and certificates,
    penalized_value and minimax_gap take any object that answers them. A
    value vector v has shape (n,), n = space.n; another shape is an
    ArgumentError that names the one expected. A MeasureSet answers from its
    weight matrix, a gexp.TreeModel for its corner set by recursion."""

    @property
    def space(self) -> SampleSpace: ...

    def num_generators(self) -> int:
        """K, the number of generators (on a tree, the corner-count guard)."""

    def support(self, v, tie_tol: float) -> tuple[float, int, tuple[int, ...]]:
        """(top, index, ties): max over generators g of E_g[v], the smallest
        index attaining it, and every generator g with top - E_g[v] <= tie_tol
        in index order (none at tie_tol = -inf). The least E_g[v] is -support(-v, -inf)[0]
        but for a zero's sign (+0.0 against -0.0 at q = 1/2 with leaves (1, -1)), so a
        tree's envelopes run an inf sweep of their own."""

    def rows(self, ks) -> np.ndarray:
        """The (len(ks), n) weight rows of generators ks."""

    def mean_row(self) -> np.ndarray:
        """The (n,) weight row of the uniform mixture of the generators."""

    def envelopes(self, v, algebras) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per algebra, the smallest and the largest conditional mean of v on
        each block over the generators that charge it. A MeasureSet also takes
        a stack (..., n) of vectors; a TreeModel takes one vector, at its
        level partitions only."""

    def is_proper(self) -> bool:
        """Whether every generator charges every point that some generator charges."""

    def block_solve(self, x, c, p0) -> BlockSolution | None:
        """The estimator at c block by block, x of shape (n,): (eta per block,
        alpha, phi, {generator: weight} of P_hat, generators added), or None
        where the generators couple the blocks (solve_mmse's dual ascent).
        Each block is its own minimax subproblem, and estimator.MAX_ADDITIONS,
        read at call time, caps the generators added to each."""


class MeasureSet(Immutable):
    """A nonempty generator list whose convex hull is the represented set.

    The generators are stored as the rows of one read-only (K, n) array;
    `generators` wraps those rows as Measure objects on first use.
    """

    space: SampleSpace
    weights_matrix: np.ndarray

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

    def __len__(self):
        return len(self.weights_matrix)

    # the set's queries (SetQueries)

    def num_generators(self) -> int:
        return len(self.weights_matrix)

    def _products(self, v) -> np.ndarray:
        """E_g[v] for every generator g: v must have shape (n,), else ArgumentError."""
        v, W = np.asarray(v), self.weights_matrix
        if v.shape != W.shape[1:]:
            raise ArgumentError(f"expected a vector of {W.shape[1]} values, got shape {v.shape}")
        return W @ v

    def support(self, v, tie_tol: float) -> tuple[float, int, tuple[int, ...]]:
        top = self._products(v)
        k = int(top.argmax())  # argmax returns the smallest maximizing index
        if tie_tol == -np.inf:
            return float(top[k]), k, ()
        return float(top[k]), k, tuple((top >= top[k] - tie_tol).nonzero()[0].tolist())

    def rows(self, ks) -> np.ndarray:
        """Rows ks of the weight matrix, ks any sequence of generator indices,
        each an integer in 0..K - 1 (else ArgumentError): an integer array is
        checked by its least and largest entry, anything else index by index."""
        ks, K = np.asarray(ks), len(self.weights_matrix)
        if ks.dtype.kind not in "iu":  # bools, floats, strings, integers past int64
            ks = np.array([as_int(k, "generator index") for k in ks.tolist()], dtype=object)
        if ks.size and not 0 <= ks.min() <= ks.max() < K:
            raise ArgumentError(f"generator indices lie in 0..{K - 1}")
        return self.weights_matrix[ks.astype(np.intp, copy=False)]

    def mean_row(self) -> np.ndarray:
        return self.weights_matrix.mean(axis=0)

    def is_proper(self) -> bool:
        """Then every element of the hull is equivalent to the uniform mixture
        (mean_row). Weights are nonnegative, so every column whose least weight
        is 0 must be 0 throughout: one reduction, and a copy of those columns
        alone, once per set."""
        return self._proper

    @cached_property
    def _proper(self) -> bool:
        W = self.weights_matrix
        return not W[:, W.min(axis=0) == 0.0].any()

    def block_solve(self, x, c, p0) -> None:
        """None: the generators couple the blocks, so solve_mmse runs its dual ascent."""
        return None

    def envelopes(self, v, algebras) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per algebra, the smallest and the largest conditional mean of v, or
        of each row of a stack v (..., n), on each block over the generators
        that charge it: one table of means per algebra, reduced over them."""
        W, v = self.weights_matrix, np.asarray(v)
        if v.shape[-1:] != W.shape[1:]:
            raise ArgumentError(
                f"expected values of shape (..., {W.shape[1]}), got shape {v.shape}"
            )
        v = v[..., None, :]
        means = (c.conditional_means(W, v, c.charged_masses(W)) for c in algebras)
        return [(np.fmin.reduce(m, axis=-2), np.fmax.reduce(m, axis=-2)) for m in means]


class MixtureWeights(Immutable):
    """Simplex coordinates over the generator list of a MeasureSet: finite
    weights, each at least -SIMPLEX_TOL, summing to 1 within SIMPLEX_TOL (else
    ArgumentError), kept clipped at 0 and divided by their sum, read-only."""

    lam: np.ndarray

    def __init__(self, lam):
        lam = np.array(lam, dtype=float)
        if lam.ndim != 1 or len(lam) == 0:
            raise ArgumentError("mixture weights must be a nonempty vector")
        if not np.isfinite(lam).all() or (lam < -SIMPLEX_TOL).any():
            raise ArgumentError("mixture weights must be finite and nonnegative")
        total = lam.sum()
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ArgumentError(f"mixture weights sum to {float(total)!r}, not 1")
        np.maximum(lam, 0.0, out=lam)
        lam /= lam.sum()
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

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
    return c.broadcast(c.conditional_means(p.weights, x.values, c.charged_masses(p.weights)))


def mix(ms: MeasureSet, w: MixtureWeights) -> Measure:
    """The convex combination of the generators with the given simplex weights."""
    if len(w) != len(ms):
        raise ArgumentError(
            f"{len(w)} mixture weights for {len(ms)} generators"
        )
    return Measure(ms.space, w.lam @ ms.weights_matrix)
