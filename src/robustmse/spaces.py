"""Finite sample spaces, bounded random variables, partitions and filtrations.

All types are immutable after construction; every operation is a pure
function. Immutability is enforced, not declared: the value types (these and
Measure, MeasureSet, MixtureWeights, TreeModel) derive from Immutable, whose
__setattr__ and __delattr__ raise AttributeError, so each __init__ validates
and writes its attributes once through object.__setattr__, and their arrays
are read-only. They keep an instance __dict__, where functools.cached_property
stores what it computes. Result records are NamedTuples, immutable as tuples.

Value types have one rule for equality, stated once in Immutable from the
annotated fields: objects of one class are equal when every field is (arrays
by np.array_equal), and equal objects hash equal, -0.0 and 0.0 included.

Measurability is exact equality on stored values: instances are
constructed, not measured, so no check here has a tolerance. Elsewhere, values
derived from x are compared in units of RandomVariable.unit, under VALUE_TOL.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .errors import ArgumentError, StructuralError, ZeroMassBlockError

VALUE_TOL = 1e-9  # relative slack of a value comparison, in units of RandomVariable.unit


def as_int(value, name: str) -> int:
    """value, an int or a numpy integer, as an int: a bool, a float or anything
    else is an ArgumentError naming `name`, where int() would truncate it."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ArgumentError(f"{name} must be an integer, got {value!r}")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class Immutable:
    """Base of the value types: attribute assignment and deletion raise
    AttributeError. Equality, hashing and the repr read the annotated fields:
    objects of one class are equal when every field is (arrays by np.array_equal)
    and hash the tuple of fields, an array by the bytes of a + 0.0, so -0.0 as 0.0.
    The repr leaves arrays out. Arrays, cached ones included, are read-only from
    birth and stay so through pickle and deepcopy, whose copies carry the fields
    only and rebuild their caches."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> list:
        return [getattr(self, k) for k in type(self).__annotations__]

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(tuple((v + 0.0).tobytes() if isinstance(v, np.ndarray) else v
                          for v in self._values()))

    def __getstate__(self):
        return {k: self.__dict__[k] for k in type(self).__annotations__}

    def __setstate__(self, state):  # pickle and copy restore arrays writeable
        for v in state.values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        self.__dict__.update(state)

    def __repr__(self):
        shown = zip(type(self).__annotations__, self._values())
        body = ", ".join(f"{k}={v!r}" for k, v in shown if not isinstance(v, np.ndarray))
        return f"{type(self).__name__}({body})"


class SampleSpace(Immutable):
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
    def of_size(cls, n: int) -> "SampleSpace":
        return cls(tuple(f"w{i}" for i in range(as_int(n, "sample space size"))))


class RandomVariable(Immutable):
    """A real value per sample point, carrying its sup-norm bound max|values|."""

    space: SampleSpace
    values: np.ndarray
    bound: float

    def __init__(self, space, values):
        values = _frozen_array(values)
        if values.ndim != 1 or len(values) != space.n:
            raise StructuralError(
                f"expected {space.n} values, got shape {values.shape}"
            )
        bound = float(np.abs(values).max())
        if not bound < np.inf:  # a NaN or infinite value
            raise ArgumentError("random variable values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bound", bound)

    @cached_property
    def unit(self) -> float:
        """R, the unit of values derived from x (R^2 for products): half the
        range of x, max|x| for a constant x, 1 for x = 0. Each end is halved
        first, so R is finite where the range itself passes the largest float."""
        hi, lo = float(self.values.max()), float(self.values.min())
        return hi / 2.0 - lo / 2.0 or self.bound or 1.0

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


class PartitionAlgebra(Immutable):
    """A partition of the sample indices; stands in for a sub-sigma-algebra.

    Blocks are canonicalized on construction (indices sorted within a block,
    blocks sorted by smallest member) so equality of algebras is structural.
    Every blockwise operation goes through the read-only layout computed
    here: labels[i] is the block containing sample point i, first[j] the
    smallest index of block j, and block_sums adds each block's points in one
    reduction, so a row's sums do not depend on the rows stacked with it.
    charged_masses is the only refusal of a block that nothing charges.
    """

    space: SampleSpace
    blocks: tuple[tuple[int, ...], ...]
    labels: np.ndarray
    first: np.ndarray

    def __init__(self, space, blocks):
        canon = []
        seen: set[int] = set()
        for b in blocks:
            b = tuple(sorted(as_int(i, "a block index") for i in b))
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
    def _order(self):
        # the points in block order, the blocks concatenated; None if that is the identity
        order = np.concatenate(self.blocks)
        return None if (order == np.arange(len(order))).all() else _frozen_array(order, np.intp)

    @cached_property
    def _starts(self) -> np.ndarray:  # where each block starts in _order
        return _frozen_array(np.cumsum([0] + [len(b) for b in self.blocks[:-1]]), np.intp)

    def block_sums(self, a) -> np.ndarray:
        """Sum of a finite (..., n) array over each block: shape (..., B), float64."""
        a, order = np.asarray(a), self._order
        if a.shape[-1:] != self.labels.shape:
            raise StructuralError(f"expected {self.space.n} values per row, got shape {a.shape}")
        gathered = a if order is None else a.take(order, axis=-1)
        return np.add.reduceat(gathered, self._starts, axis=-1, dtype=float)

    def charged_masses(self, weights) -> np.ndarray:
        """block_sums of a (n,) or (K, n) array of nonnegative weights. Raises
        ZeroMassBlockError on the first block, in canonical order, that no
        row charges."""
        mass = self.block_sums(weights)
        charged = (mass > 0.0).reshape(-1, self.num_blocks).any(axis=0)
        if not charged.all():
            raise ZeroMassBlockError(self.blocks[int(charged.argmin())])
        return mass

    def conditional_means(self, weights, values, mass) -> np.ndarray:
        """The (B,) or (K, B) conditional means of values (a stack of tables for
        stacked values) under a row or K rows of weights, mass their block masses;
        a row that gives a block zero mass is NaN there, which np.fmax and np.fmin skip."""
        weighted = self.block_sums(weights * values)
        return np.divide(weighted, mass, out=np.full(weighted.shape, np.nan), where=mass > 0.0)

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


class Filtration(Immutable):
    """An ordered list of partition algebras on one sample space, each
    refining the one before it (construction refuses any other list).
    Builders in this package put the trivial algebra at level 0.
    """

    levels: tuple[PartitionAlgebra, ...]

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise ArgumentError("filtration needs at least one level")
        for i in range(1, len(levels)):  # refines raises StructuralError across spaces
            if not levels[i].refines(levels[i - 1]):
                raise ArgumentError(f"filtration[{i}] does not refine filtration[{i - 1}]")
        object.__setattr__(self, "levels", levels)


def is_measurable(x: RandomVariable, c: PartitionAlgebra) -> bool:
    """True iff x is constant on every block of c (exact equality)."""
    if x.space != c.space:
        raise StructuralError("variable and algebra live on different spaces")
    v = x.values
    return bool((v == v[c.first][c.labels]).all())


def check_same_space(*objs) -> SampleSpace:
    space = objs[0].space
    for o in objs[1:]:
        if o.space != space:
            raise StructuralError("objects live on different sample spaces")
    return space
