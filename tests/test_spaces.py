import numpy as np
import pytest

from hypothesis import given, strategies as st

from robustmse import (
    ArgumentError,
    Filtration,
    Measure,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    StructuralError,
    conditional_expectation,
    is_measurable,
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

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_size_is_an_integer(self, n):
        # 2.0 raised a bare TypeError, and True built a one-point space
        assert SampleSpace.of_size(np.int64(2)) == space(2)
        with pytest.raises(ArgumentError, match="sample space size must be an integer"):
            SampleSpace.of_size(n)


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

    def test_unit_is_computed_once(self):
        x = RandomVariable(space(3), [1.0, -2.0, 0.5])
        assert "unit" not in vars(x)
        assert x.unit == 1.5
        assert vars(x)["unit"] == 1.5  # cached on the instance
        with pytest.raises(AttributeError):
            x.unit = 1.0
        assert x.unit == 1.5


class TestPartitionAlgebra:
    def test_canonical_order(self):
        c = PartitionAlgebra(space(4), [(3, 2), (1, 0)])
        assert c.blocks == ((0, 1), (2, 3))

    def test_overlap_rejected(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(3), [(0, 1), (1, 2)])
        with pytest.raises(ArgumentError, match="repeated index inside block"):
            PartitionAlgebra(space(3), [(0, 0, 1), (2,)])

    def test_cover_required(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(3), [(0, 1)])

    def test_empty_block_rejected(self):
        with pytest.raises(ArgumentError):
            PartitionAlgebra(space(2), [(0, 1), ()])

    def test_indices_are_integers_not_truncated(self):
        # (0.7, 1.2) used to read as the block (0, 1)
        for blocks in ([(0.7, 1.2), (2,)], [(0, 1), (2.0,)], [(False, True), (2,)]):
            with pytest.raises(ArgumentError, match="block index must be an integer"):
                PartitionAlgebra(space(3), blocks)
        c = PartitionAlgebra(space(3), [np.array([1, 0]), (np.int32(2),)])
        assert c.blocks == ((0, 1), (2,)) and all(type(i) is int for b in c.blocks for i in b)

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
    """Filtration refuses a level that does not refine the level before it."""

    def test_dyadic_chain(self):
        s = space(4)
        levels = [
            PartitionAlgebra(s, [(0, 1, 2, 3)]),
            PartitionAlgebra(s, [(0, 1), (2, 3)]),
            PartitionAlgebra.discrete(s),
        ]
        assert Filtration(levels).levels == tuple(levels)

    def test_crossing_blocks(self):
        s = space(4)
        levels = [
            PartitionAlgebra(s, [(0, 1), (2, 3)]),
            PartitionAlgebra(s, [(0, 2), (1, 3)]),
        ]
        with pytest.raises(ArgumentError, match=r"filtration\[1\] does not refine filtration\[0\]"):
            Filtration(levels)
        # a coarser level after a finer one is refused as well
        with pytest.raises(ArgumentError, match=r"filtration\[2\]"):
            Filtration([PartitionAlgebra.trivial(s), levels[0], PartitionAlgebra.trivial(s)])

    def test_levels_share_one_space(self):
        with pytest.raises(StructuralError):
            Filtration([PartitionAlgebra.trivial(space(2)), PartitionAlgebra.trivial(space(3))])

    def test_single_level_vacuous(self):
        f = Filtration([PartitionAlgebra.trivial(space(2))])
        assert len(f.levels) == 1
        with pytest.raises(ArgumentError, match="at least one level"):
            Filtration([])


finite_vals = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
)


@given(finite_vals, st.integers(min_value=0, max_value=10_000))
def test_block_projection_is_measurable(values, seed):
    # the projection under the uniform measure, the plain blockwise mean
    n = len(values)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    blocks = [tuple(np.flatnonzero(labels == j)) for j in range(k)]
    blocks = [b for b in blocks if b]
    c = PartitionAlgebra(space(n), blocks)
    x = RandomVariable(space(n), values)
    uniform = Measure(space(n), np.full(n, 1.0 / n))
    assert is_measurable(conditional_expectation(uniform, x, c), c)
