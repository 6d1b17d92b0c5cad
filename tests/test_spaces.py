import numpy as np
import pytest
from hypothesis import given, strategies as st

from robustmse import (
    ArgumentError,
    Filtration,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    StructuralError,
    block_project,
    is_measurable,
    refine_check,
    truncate,
)


def space(n):
    return SampleSpace.of_size(n)


class TestSampleSpace:
    def test_labels_must_be_unique(self):
        with pytest.raises(ArgumentError):
            SampleSpace(("a", "a"))

    def test_needs_a_point(self):
        with pytest.raises(ArgumentError):
            SampleSpace(())

    def test_size(self):
        assert space(3).n == 3


class TestRandomVariable:
    def test_bound_is_max_abs_value(self):
        assert RandomVariable(space(2), [2.0, -8.0]).bound == 8.0

    @pytest.mark.parametrize("bound", [5.0, 8.0, 100.0])
    def test_bound_is_not_an_argument(self, bound):
        with pytest.raises(TypeError):
            RandomVariable(space(2), [2.0, -8.0], bound=bound)

    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            RandomVariable(space(2), [np.nan, 0.0])

    def test_length_checked(self):
        with pytest.raises(StructuralError):
            RandomVariable(space(3), [1.0, 2.0])

    def test_values_frozen(self):
        x = RandomVariable(space(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 3.0


class TestPartitionAlgebra:
    def test_canonical_order(self):
        c = PartitionAlgebra(space(4), [(3, 2), (1, 0)])
        assert c.blocks == ((0, 1), (2, 3))

    def test_overlap_rejected(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(3), [(0, 1), (1, 2)])

    def test_cover_required(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(3), [(0, 1)])

    def test_empty_block_rejected(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(2), [(0, 1), ()])

    def test_equality_is_structural(self):
        a = PartitionAlgebra(space(4), [(0, 1), (2, 3)])
        b = PartitionAlgebra(space(4), [(3, 2), (1, 0)])
        assert a == b


class TestIsMeasurable:
    def test_constant_measurable_anywhere(self, two_point):
        space2, _, _, triv = two_point
        assert is_measurable(RandomVariable(space2, [5.0, 5.0]), triv)

    def test_nonconstant_on_trivial(self, two_point):
        space2, _, xi, triv = two_point
        assert not is_measurable(xi, triv)

    def test_singletons_make_everything_measurable(self, two_point):
        space2, _, xi, _ = two_point
        assert is_measurable(xi, PartitionAlgebra.discrete(space2))

    def test_space_mismatch(self, two_point):
        _, _, xi, _ = two_point
        with pytest.raises(StructuralError):
            is_measurable(xi, PartitionAlgebra.trivial(space(3)))


class TestRefineCheck:
    def test_dyadic_chain(self):
        s = space(4)
        f = Filtration(
            [
                PartitionAlgebra(s, [(0, 1, 2, 3)]),
                PartitionAlgebra(s, [(0, 1), (2, 3)]),
                PartitionAlgebra.discrete(s),
            ]
        )
        assert refine_check(f)

    def test_crossing_blocks(self):
        s = space(4)
        f = Filtration(
            [
                PartitionAlgebra(s, [(0, 1), (2, 3)]),
                PartitionAlgebra(s, [(0, 2), (1, 3)]),
            ]
        )
        assert not refine_check(f)

    def test_single_level_vacuous(self):
        f = Filtration([PartitionAlgebra.trivial(space(2))])
        assert refine_check(f)


class TestTruncate:
    def test_clamps_above(self):
        out = truncate(RandomVariable(space(2), [2.0, 12.0]), 8.0)
        assert list(out.values) == [2.0, 8.0]
        assert out.bound <= 8.0

    def test_zero_fixed_point(self):
        out = truncate(RandomVariable(space(2), [0.0, 0.0]), 3.0)
        assert list(out.values) == [0.0, 0.0]

    def test_one_sided(self):
        out = truncate(RandomVariable(space(2), [-10.0, 3.0]), 5.0)
        assert list(out.values) == [-5.0, 3.0]

    def test_negative_level_rejected(self):
        with pytest.raises(ArgumentError):
            truncate(RandomVariable(space(2), [0.0, 1.0]), -1.0)


finite_vals = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
)


@given(finite_vals, st.floats(min_value=0, max_value=60), st.randoms())
def test_truncate_idempotent(values, m, rnd):
    x = RandomVariable(space(len(values)), values)
    once = truncate(x, m)
    assert truncate(once, m) == once


@given(finite_vals)
def test_truncate_at_own_bound_is_identity(values):
    x = RandomVariable(space(len(values)), values)
    assert truncate(x, x.bound) == x


@given(finite_vals, st.integers(min_value=0, max_value=10_000))
def test_block_projection_is_measurable(values, seed):
    n = len(values)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    blocks = [tuple(np.flatnonzero(labels == j)) for j in range(k)]
    blocks = [b for b in blocks if b]
    c = PartitionAlgebra(space(n), blocks)
    x = RandomVariable(space(n), values)
    assert is_measurable(block_project(x, c), c)
