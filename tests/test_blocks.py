"""The block kernel of PartitionAlgebra (labels, first, block_sums) against
reference implementations that loop over the blocks one at a time.

The references are the per-block loops the kernel replaced. Index data
(labels, first, broadcast, measurability, refinement, zero patterns) must
match exactly; sums may differ in their last bits because the kernel adds in
a different order, so they match to 1e-13 of the array's scale. Errors must
have the same type and name the same block: the first in canonical order.
"""

import tracemalloc

import numpy as np
import pytest

from robustmse import (
    Filtration,
    Measure,
    MeasureSet,
    PartitionAlgebra,
    PastingDegeneracyError,
    RandomVariable,
    SampleSpace,
    StructuralError,
    ZeroMassBlockError,
    brute_force_mmse,
    conditional_envelopes,
    conditional_expectation,
    ess_inf_conditional,
    ess_sup_conditional,
    is_measurable,
    paste,
    solve_mmse,
)
from robustmse.estimator import _Pool
from robustmse.randgen import random_partition, rng_from_seed, split_partition
from robustmse.stability import recursivity_grid

REL = 1e-13


# ---- reference implementations: one Python iteration per block ----


def ref_labels(c):
    out = np.empty(c.space.n, dtype=int)
    for j, b in enumerate(c.blocks):
        out[list(b)] = j
    return out


def ref_broadcast(c, block_values):
    out = np.empty(c.space.n)
    for j, b in enumerate(c.blocks):
        out[list(b)] = block_values[j]
    return out


def ref_is_measurable(x, c):
    v = x.values
    return all(np.all(v[list(b)] == v[b[0]]) for b in c.blocks)


def ref_refines(fine, coarse):
    coarse_sets = [set(b) for b in coarse.blocks]
    return all(any(set(b) <= cb for cb in coarse_sets) for b in fine.blocks)


def ref_block_project(x, c):
    return ref_broadcast(c, [float(np.mean(x.values[list(b)])) for b in c.blocks])


def ref_conditional_expectation(p, x, c):
    out = np.empty(c.num_blocks)
    for j, b in enumerate(c.blocks):
        idx = list(b)
        mass = float(np.sum(p.weights[idx]))
        if mass <= 0.0:
            raise ZeroMassBlockError(b)
        out[j] = float(np.dot(p.weights[idx], x.values[idx])) / mass
    return ref_broadcast(c, out)


def ref_envelope(ms, x, c, reduce_fn):
    out = np.empty(c.num_blocks)
    for j, b in enumerate(c.blocks):
        idx = list(b)
        masses = ms.weights_matrix[:, idx].sum(axis=1)
        live = masses > 0.0
        if not np.any(live):
            raise ZeroMassBlockError(b, f"no generator charges block {tuple(b)}")
        conds = (ms.weights_matrix[live][:, idx] @ x.values[idx]) / masses[live]
        out[j] = float(reduce_fn(conds))
    return ref_broadcast(c, out)


def ref_moments(ms, xi, c):
    W, x = ms.weights_matrix, xi.values
    blocks = [list(b) for b in c.blocks]
    mass = np.stack([W[:, b].sum(axis=1) for b in blocks], axis=1)
    first = np.stack([W[:, b] @ x[b] for b in blocks], axis=1)
    return mass, first


def ref_paste(q0, q, algebra):
    out = np.zeros(q0.space.n)
    for b in algebra.blocks:
        idx = list(b)
        base_mass = float(np.sum(q0.weights[idx]))
        if base_mass == 0.0:
            continue
        tail_mass = float(np.sum(q.weights[idx]))
        if tail_mass == 0.0:
            raise PastingDegeneracyError(b)
        out[idx] = (base_mass / tail_mass) * q.weights[idx]
    return out / out.sum()


# ---- cases ----


def partition_cases():
    """Trivial, singleton and seeded shuffled partitions on spaces of 1-16 points."""
    rng = rng_from_seed(2401)
    cases = []
    for n in (1, 2, 5, 9, 16):
        space = SampleSpace.of_size(n)
        cases.append(PartitionAlgebra.trivial(space))
        cases.append(PartitionAlgebra.discrete(space))
        for _ in range(3):
            cases.append(random_partition(rng, space, int(rng.integers(1, n + 1))))
    return cases


PARTITIONS = partition_cases()
IDS = [f"n{c.space.n}-B{c.num_blocks}-{i}" for i, c in enumerate(PARTITIONS)]


def weights_with_dead_blocks(rng, c, num_generators, keep_first=True):
    """Non-dyadic rows; every row but (optionally) the first loses the mass of
    a random proper subset of blocks, so some blocks carry zero mass."""
    W = rng.dirichlet(np.ones(c.space.n), size=num_generators)
    labels = ref_labels(c)
    for k in range(1 if keep_first else 0, num_generators):
        if c.num_blocks > 1:
            dead = rng.choice(c.num_blocks, size=int(rng.integers(1, c.num_blocks)), replace=False)
            W[k, np.isin(labels, dead)] = 0.0
    return W / W.sum(axis=1, keepdims=True)


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref)))) if ref.size else 1.0
    assert np.all(np.abs(got - ref) <= REL * scale), np.max(np.abs(got - ref))


def same_error(fn, ref_fn, error):
    """Both raise error naming the same block, or neither raises."""
    try:
        expected = ref_fn()
    except error as exc:
        with pytest.raises(error) as got:
            fn()
        assert got.value.block == exc.block
        return None, None
    return fn(), expected


# ---- layout ----


def test_block_sums_allocate_no_point_by_block_array():
    # the discrete partition of 2,000 points has 2,000 blocks: a dense n x B
    # matrix of its points' blocks would take 32 MB
    c = PartitionAlgebra.discrete(SampleSpace.of_size(2000))
    a = rng_from_seed(2404).normal(size=2000)
    tracemalloc.start()
    try:
        sums = c.block_sums(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.tobytes() == a.tobytes()
    assert peak < 2**20


@pytest.mark.parametrize("c", PARTITIONS, ids=IDS)
class TestLayout:
    def test_labels_and_first(self, c):
        assert np.array_equal(c.labels, ref_labels(c))
        assert c.first.tolist() == [b[0] for b in c.blocks]
        assert not c.labels.flags.writeable and not c.first.flags.writeable

    def test_block_sums_any_leading_shape(self, c):
        rng = rng_from_seed(2402)
        a = rng.normal(size=(3, 2, c.space.n))
        ref = np.stack([a[..., list(b)].sum(axis=-1) for b in c.blocks], axis=-1)
        assert_close(c.block_sums(a), ref)
        assert_close(c.block_sums(a[0, 0]), ref[0, 0])
        with pytest.raises(StructuralError, match=f"expected {c.space.n} values per row"):
            c.block_sums(a[..., 1:])

    def test_broadcast(self, c):
        vals = rng_from_seed(2403).normal(size=c.num_blocks)
        assert np.array_equal(c.broadcast(vals).values, ref_broadcast(c, vals))
        with pytest.raises(StructuralError, match=f"expected {c.num_blocks} block values"):
            c.broadcast(np.append(vals, 0.0))

    def test_is_measurable(self, c):
        rng = rng_from_seed(2404)
        x = c.broadcast(rng.integers(-4, 5, size=c.num_blocks) / 4)
        assert is_measurable(x, c) is True
        for i in range(c.space.n):
            for bump in (0.5, np.nextafter(x.values[i], np.inf) - x.values[i]):
                bumped = x.values.copy()
                bumped[i] += bump  # one ulp still breaks measurability
                y = RandomVariable(c.space, bumped)
                assert is_measurable(y, c) == ref_is_measurable(y, c)

    def test_refines(self, c):
        rng = rng_from_seed(2405)
        finer = split_partition(rng, c)
        other = random_partition(rng, c.space, int(rng.integers(1, c.space.n + 1)))
        for fine, coarse in [(finer, c), (c, finer), (c, other), (other, c), (c, c)]:
            assert fine.refines(coarse) == ref_refines(fine, coarse)
        assert finer.refines(c)

    def test_block_project(self, c):
        # the projection onto block-measurable variables under the uniform
        # measure: the plain blockwise mean
        x = RandomVariable(c.space, rng_from_seed(2406).normal(size=c.space.n))
        uniform = Measure(c.space, np.full(c.space.n, 1.0 / c.space.n))
        assert_close(conditional_expectation(uniform, x, c).values, ref_block_project(x, c))


# ---- sums over generators ----


@pytest.mark.parametrize("c", PARTITIONS, ids=IDS)
class TestBlockwiseSums:
    def test_conditional_expectation(self, c):
        rng = rng_from_seed(2411)
        x = RandomVariable(c.space, rng.normal(size=c.space.n))
        W = weights_with_dead_blocks(rng, c, 6)
        for row in W:
            p = Measure(c.space, row)
            got, ref = same_error(
                lambda: conditional_expectation(p, x, c),
                lambda: ref_conditional_expectation(p, x, c),
                ZeroMassBlockError,
            )
            if got is not None:
                assert_close(got.values, ref)

    def test_envelopes_skip_zero_mass_generators(self, c):
        rng = rng_from_seed(2412)
        x = RandomVariable(c.space, rng.normal(size=c.space.n))
        ms = MeasureSet.from_matrix(c.space, weights_with_dead_blocks(rng, c, 7))
        assert_close(ess_sup_conditional(ms, x, c).values, ref_envelope(ms, x, c, np.max))
        assert_close(ess_inf_conditional(ms, x, c).values, ref_envelope(ms, x, c, np.min))
        # both envelopes from one table of means, bit for bit
        lower, upper = conditional_envelopes(ms, x, c)
        assert np.array_equal(lower.values, ess_inf_conditional(ms, x, c).values)
        assert np.array_equal(upper.values, ess_sup_conditional(ms, x, c).values)

    def test_moment_tables(self, c):
        rng = rng_from_seed(2414)
        xi = RandomVariable(c.space, rng.normal(size=c.space.n) * 3.0)
        ms = MeasureSet.from_matrix(c.space, weights_with_dead_blocks(rng, c, 5))
        pool = _Pool(ms, xi, c)
        # pooled out of index order: row j holds generator pool.ids[j]
        order = rng.permutation(len(ms))
        assert [pool.add(int(k)) for k in order] == list(range(len(ms)))
        assert pool.ids == order.tolist()
        mass, first = ref_moments(ms, xi, c)
        assert_close(pool.mass, mass[order])
        assert_close(pool.first, first[order])
        assert np.array_equal(pool.mass == 0.0, mass[order] == 0.0)
        # residuals from the weight rows, block by block
        eta = rng.normal(size=c.num_blocks)
        dev = xi.values - ref_broadcast(c, eta)
        W = ms.weights_matrix[order]
        blocks = [list(b) for b in c.blocks]
        assert_close(pool.worst(eta)[0], sum(W[:, b] @ dev[b] ** 2 for b in blocks))


@pytest.mark.parametrize(
    "c",
    [c for c in PARTITIONS if c.num_blocks > 1],
    ids=[i for c, i in zip(PARTITIONS, IDS) if c.num_blocks > 1],
)
def test_envelope_uncharged_block_errors(c):
    rng = rng_from_seed(2413)
    x = RandomVariable(c.space, rng.normal(size=c.space.n))
    W = rng.dirichlet(np.ones(c.space.n), size=4)
    dead = rng.choice(c.num_blocks, size=int(rng.integers(1, c.num_blocks)), replace=False)
    W[:, np.isin(c.labels, dead)] = 0.0
    ms = MeasureSet.from_matrix(c.space, W / W.sum(axis=1, keepdims=True))
    for fn, reduce_fn in (
        (ess_sup_conditional, np.max),
        (ess_inf_conditional, np.min),
        (conditional_envelopes, np.min),
    ):
        with pytest.raises(ZeroMassBlockError) as err:
            fn(ms, x, c)
        with pytest.raises(ZeroMassBlockError) as ref:
            ref_envelope(ms, x, c, reduce_fn)
        assert err.value.block == ref.value.block == c.blocks[int(np.min(dead))]


def test_paste_matches_reference():
    rng = rng_from_seed(2421)
    raised = 0
    for n in (2, 6, 12):
        space = SampleSpace.of_size(n)
        mid = random_partition(rng, space, int(rng.integers(1, n + 1)))
        f = Filtration(
            [
                PartitionAlgebra.trivial(space),
                mid,
                split_partition(rng, mid),
                PartitionAlgebra.discrete(space),
            ]
        )
        W = weights_with_dead_blocks(rng, f.levels[2], 6, keep_first=False)
        gens = [Measure(space, row) for row in W]
        for q0 in gens:
            for q in gens:
                for level, algebra in enumerate(f.levels):
                    got, ref = same_error(
                        lambda: paste(q0, q, f, level).result.weights,
                        lambda: ref_paste(q0, q, algebra),
                        PastingDegeneracyError,
                    )
                    if got is None:
                        raised += 1
                        continue
                    assert np.array_equal(got == 0.0, ref == 0.0)
                    assert_close(got, ref)
    assert raised > 0  # the cases exercise the degeneracy


def test_first_block_named_in_canonical_order():
    space = SampleSpace.of_size(6)
    c = PartitionAlgebra(space, [(5, 3), (4,), (0, 2), (1,)])  # canonical: (0,2),(1,),(3,5),(4,)
    x = RandomVariable(space, np.arange(6.0))
    p = Measure(space, [0.5, 0.0, 0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroMassBlockError) as err:
        conditional_expectation(p, x, c)
    assert err.value.block == (1,)
    ms = MeasureSet([p, Measure(space, [0.5, 0.0, 0.0, 0.0, 0.5, 0.0])])
    f = Filtration([PartitionAlgebra.trivial(space), c])
    for call in (
        lambda: ess_sup_conditional(ms, x, c),
        lambda: solve_mmse(ms, x, c),
        lambda: brute_force_mmse(ms, x, c),
        lambda: recursivity_grid(ms, f, x),
    ):
        with pytest.raises(ZeroMassBlockError) as err:
            call()
        assert err.value.block == (1,)
    q0 = Measure(space, np.full(6, 1 / 6))
    with pytest.raises(PastingDegeneracyError) as err:
        paste(q0, p, f, 1)
    assert err.value.block == (1,)
