"""Finite sample spaces, bounded random variables, partitions and filtrations.

All types are immutable after construction; every operation is a pure
function. Measurability is exact equality on stored values: instances are
constructed, not measured, so there is no tolerance anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ArgumentError, StructuralError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SampleSpace:
    """A finite set of named sample points; the sigma-algebra is the full power set."""

    labels: tuple[str, ...]

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(labels) == 0:
            raise ArgumentError("sample space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ArgumentError("sample point labels must be distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, n: int, prefix: str = "w") -> "SampleSpace":
        return cls(tuple(f"{prefix}{i}" for i in range(n)))


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real value per sample point, carrying its sup-norm bound max|values|."""

    space: SampleSpace
    values: np.ndarray = field(repr=False)
    bound: float = field(init=False)

    def __init__(self, space, values):
        values = _frozen_array(values)
        if values.ndim != 1 or len(values) != space.n:
            raise StructuralError(
                f"expected {space.n} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ArgumentError("random variable values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bound", float(np.max(np.abs(values))) if len(values) else 0.0)

    def __eq__(self, other):
        if not isinstance(other, RandomVariable):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.space, self.values.tobytes()))

    def map(self, fn) -> "RandomVariable":
        return RandomVariable(self.space, fn(np.asarray(self.values)))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(self.space, -np.asarray(self.values))

    def _combine(self, other, op):
        if isinstance(other, RandomVariable):
            check_same_space(self, other)
            return RandomVariable(self.space, op(self.values, other.values))
        return RandomVariable(self.space, op(self.values, float(other)))


@dataclass(frozen=True)
class PartitionAlgebra:
    """A partition of the sample indices; stands in for a sub-sigma-algebra.

    Blocks are canonicalized on construction (indices sorted within a block,
    blocks sorted by smallest member) so equality of algebras is structural.
    Every blockwise operation goes through the read-only layout computed
    here: labels[i] is the block containing sample point i, first[j] the
    smallest index of block j, and block_sums adds along the sample axis.
    """

    space: SampleSpace
    blocks: tuple[tuple[int, ...], ...]
    labels: np.ndarray = field(repr=False, compare=False)
    first: np.ndarray = field(repr=False, compare=False)

    def __init__(self, space, blocks):
        canon = []
        seen: set[int] = set()
        for b in blocks:
            b = tuple(sorted(int(i) for i in b))
            if len(b) == 0:
                raise ArgumentError("partition blocks must be nonempty")
            if len(set(b)) != len(b):
                raise ArgumentError(f"repeated index inside block {b}")
            if seen & set(b):
                raise ArgumentError(f"block {b} overlaps another block")
            if b[0] < 0 or b[-1] >= space.n:
                raise StructuralError(f"block {b} outside index range 0..{space.n - 1}")
            seen |= set(b)
            canon.append(b)
        if seen != set(range(space.n)):
            raise ArgumentError("blocks must cover every sample index")
        canon.sort(key=lambda b: b[0])
        labels = np.empty(space.n, dtype=np.intp)
        labels[np.concatenate(canon)] = np.repeat(np.arange(len(canon)), [len(b) for b in canon])
        labels.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", tuple(canon))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "first", _frozen_array([b[0] for b in canon], dtype=np.intp))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def trivial(cls, space) -> "PartitionAlgebra":
        return cls(space, [tuple(range(space.n))])

    @classmethod
    def discrete(cls, space) -> "PartitionAlgebra":
        return cls(space, [(i,) for i in range(space.n)])

    @cached_property
    def _incidence(self) -> np.ndarray:
        # n x B, 1.0 where point i lies in block j: 8*n*B bytes, kept while
        # the partition lives since every blockwise sum multiplies by it
        inc = np.zeros((self.space.n, self.num_blocks))
        inc[np.arange(self.space.n), self.labels] = 1.0
        return inc

    def block_sums(self, a) -> np.ndarray:
        """Sum of a finite (..., n) array over each block: shape (..., B)."""
        return np.asarray(a, dtype=float) @ self._incidence

    def refines(self, coarser: "PartitionAlgebra") -> bool:
        if self.space != coarser.space:
            raise StructuralError("partitions live on different sample spaces")
        outer = coarser.labels
        return bool(np.array_equal(outer, outer[self.first][self.labels]))

    def broadcast(self, block_values) -> RandomVariable:
        """Write one value per block identically at every index of the block."""
        block_values = np.asarray(block_values, dtype=float)
        if len(block_values) != self.num_blocks:
            raise StructuralError(
                f"expected {self.num_blocks} block values, got {len(block_values)}"
            )
        return RandomVariable(self.space, block_values[self.labels])


@dataclass(frozen=True)
class Filtration:
    """An ordered list of partition algebras on one sample space.

    Construction does not enforce refinement; use refine_check to verify the
    nesting. Builders in this package put the trivial algebra at level 0.
    """

    levels: tuple[PartitionAlgebra, ...]

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise ArgumentError("filtration needs at least one level")
        space = levels[0].space
        for lev in levels:
            if lev.space != space:
                raise StructuralError("all filtration levels must share one space")
        object.__setattr__(self, "levels", levels)

    @property
    def space(self) -> SampleSpace:
        return self.levels[0].space

    def __len__(self):
        return len(self.levels)


def is_measurable(x: RandomVariable, c: PartitionAlgebra) -> bool:
    """True iff x is constant on every block of c (exact equality)."""
    if x.space != c.space:
        raise StructuralError("variable and algebra live on different spaces")
    v = x.values
    return bool(np.array_equal(v, v[c.first][c.labels]))


def refine_check(f: Filtration) -> bool:
    """True iff every level refines the previous one."""
    return all(
        f.levels[k].refines(f.levels[k - 1]) for k in range(1, len(f.levels))
    )


def truncate(x: RandomVariable, m: float) -> RandomVariable:
    """Clamp every value to [-m, m]; the classical bounded reformulation."""
    if m < 0:
        raise ArgumentError("truncation level must be nonnegative")
    return RandomVariable(x.space, np.clip(x.values, -m, m))


def block_project(x: RandomVariable, c: PartitionAlgebra) -> RandomVariable:
    """Plain (unweighted) blockwise average; measurable w.r.t. c by construction."""
    if x.space != c.space:
        raise StructuralError("variable and algebra live on different spaces")
    return c.broadcast(c.block_sums(x.values) / np.bincount(c.labels))


def check_same_space(*objs) -> SampleSpace:
    space = objs[0].space
    for o in objs[1:]:
        if o.space != space:
            raise StructuralError("objects live on different sample spaces")
    return space
