"""Seeded generation of small rational test instances.

All randomness in the package flows through numpy's PCG64 generator seeded
with one explicit 64-bit integer, so every run replays identically. Weights
and values are rationals on a fixed dyadic grid (default denominator 16),
which float64 represents exactly; serialized instances therefore carry exact
numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .measures import Measure, MeasureSet
from .spaces import Filtration, PartitionAlgebra, RandomVariable, SampleSpace

DEFAULT_DENOMINATOR = 16


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def random_positive_measure(rng, space, denominator=DEFAULT_DENOMINATOR) -> Measure:
    """Strictly positive weights k_i/denominator with sum exactly 1."""
    n = space.n
    if denominator < n:
        raise ArgumentError("denominator too small for strictly positive weights")
    extra = rng.multinomial(denominator - n, np.full(n, 1.0 / n))
    return Measure(space, (extra + 1) / denominator)


def random_measure_set(rng, space, num_generators, denominator=DEFAULT_DENOMINATOR) -> MeasureSet:
    return MeasureSet(
        [random_positive_measure(rng, space, denominator) for _ in range(num_generators)]
    )


def random_variable(rng, space, denominator=DEFAULT_DENOMINATOR, span=2.0) -> RandomVariable:
    """Values j/denominator with |values| <= span."""
    top = int(round(span * denominator))
    vals = rng.integers(-top, top + 1, size=space.n) / denominator
    return RandomVariable(space, vals)


def random_partition(rng, space, num_blocks) -> PartitionAlgebra:
    """A partition into exactly num_blocks nonempty blocks of shuffled indices."""
    n = space.n
    if not 1 <= num_blocks <= n:
        raise ArgumentError("block count must lie in 1..n")
    perm = rng.permutation(n)
    # num_blocks-1 cut points split the shuffled indices into nonempty runs
    cuts = np.sort(rng.choice(np.arange(1, n), size=num_blocks - 1, replace=False))
    blocks = np.split(perm, cuts)
    return PartitionAlgebra(space, [tuple(int(i) for i in b) for b in blocks])


def split_partition(rng, partition, split_prob=0.7) -> PartitionAlgebra:
    """Refine by randomly splitting blocks of size >= 2 into two parts."""
    out = []
    for b in partition.blocks:
        if len(b) >= 2 and rng.random() < split_prob:
            order = rng.permutation(len(b))
            cut = int(rng.integers(1, len(b)))
            chosen = [b[i] for i in order]
            out.append(tuple(chosen[:cut]))
            out.append(tuple(chosen[cut:]))
        else:
            out.append(b)
    return PartitionAlgebra(partition.space, out)


def random_instance(
    rng,
    max_points=6,
    max_blocks=3,
    max_generators=5,
    denominator=DEFAULT_DENOMINATOR,
):
    """A proper instance: (measure set, variable, partition)."""
    n = int(rng.integers(2, max_points + 1))
    space = SampleSpace.of_size(n)
    k = int(rng.integers(2, max_generators + 1))
    ms = random_measure_set(rng, space, k, denominator)
    xi = random_variable(rng, space, denominator)
    blocks = int(rng.integers(1, min(max_blocks, n) + 1))
    c = random_partition(rng, space, blocks)
    return ms, xi, c


def random_product_instance(
    rng,
    max_rows=3,
    max_cols=3,
    max_generators=4,
    denominator=DEFAULT_DENOMINATOR,
):
    """Generators of product form row_marginal x column_law on a grid.

    One row marginal is shared by every generator, so all mixtures stay
    product measures: a column-dependent variable is then independent of the
    row partition under every element of the hull, not only the generators.
    """
    rows = int(rng.integers(2, max_rows + 1))
    cols = int(rng.integers(2, max_cols + 1))
    space = SampleSpace.of_size(rows * cols)
    r = (rng.multinomial(denominator - rows, np.full(rows, 1.0 / rows)) + 1) / denominator
    gens = []
    for _ in range(int(rng.integers(2, max_generators + 1))):
        q = (rng.multinomial(denominator - cols, np.full(cols, 1.0 / cols)) + 1) / denominator
        gens.append(Measure(space, np.outer(r, q).ravel()))
    ms = MeasureSet(gens)
    col_vals = rng.integers(-2 * denominator, 2 * denominator + 1, size=cols) / denominator
    xi = RandomVariable(space, np.tile(col_vals, rows))
    row_partition = PartitionAlgebra(
        space, [tuple(range(i * cols, (i + 1) * cols)) for i in range(rows)]
    )
    return ms, xi, row_partition


def random_two_level_filtration(rng, space, max_coarse_blocks=3) -> Filtration:
    """Trivial root, a coarse partition, and a strict refinement of it.

    The refinement keeps at least one block of size >= 2 so that conditioning
    on the finer level is not full information.
    """
    n = space.n
    for _ in range(64):
        coarse = random_partition(rng, space, int(rng.integers(2, max_coarse_blocks + 1)))
        if all(len(b) == 1 for b in coarse.blocks):
            continue
        fine = split_partition(rng, coarse)
        if fine == coarse:
            continue
        if all(len(b) == 1 for b in fine.blocks):
            continue
        return Filtration([PartitionAlgebra.trivial(space), coarse, fine])
    raise ArgumentError(f"no usable two-level filtration in 64 draws on {n} points")
