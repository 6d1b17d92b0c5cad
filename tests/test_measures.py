import math
import warnings

import numpy as np
import pytest

from robustmse import (
    ArgumentError,
    Measure,
    MeasureSet,
    MixtureWeights,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    StructuralError,
    ZeroMassBlockError,
    conditional_expectation,
    expectation,
    mix,
    solve_mmse,
    verify_saddle,
)
from robustmse.randgen import (
    random_instance,
    random_partition,
    random_positive_measure,
    random_two_level_filtration,
    rng_from_seed,
)


def built_silently_and_certified(build):
    """The set build() returns, built with every warning an error, whose
    solve on xi = (1, 3) over the trivial partition converges and passes
    its saddle certificate."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ms = build()
    xi = RandomVariable(ms.space, [1.0, 3.0])
    c = PartitionAlgebra.trivial(ms.space)
    res = solve_mmse(ms, xi, c)
    assert res.converged
    assert verify_saddle(ms, xi, c, res).passed
    return ms, res


class TestMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(ArgumentError):
            Measure(SampleSpace.of_size(2), [-0.1, 1.1])

    def test_sum_tolerance(self):
        with pytest.raises(ArgumentError):
            Measure(SampleSpace.of_size(2), [0.4, 0.5])

    def test_renormalizes_tiny_drift(self):
        thirds = [1 / 3, 1 / 3, 1 / 3]
        m = Measure(SampleSpace.of_size(3), thirds)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_generators_accepted(self):
        # a repeated generator is one case of affinely dependent generators
        g = Measure(SampleSpace.of_size(2), [0.5, 0.5])
        ms, res = built_silently_and_certified(lambda: MeasureSet([g, g]))
        assert len(ms) == 2
        assert res.alpha == 1.0


class TestMeasureSetMatrix:
    # the last two rows sum to 1 within SIMPLEX_TOL but not exactly, so renormalization acts
    DRIFT = np.array([[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3 + 1e-13], [0.6, 0.3, 0.1]])

    def test_generators_wrap_the_stored_rows(self):
        ms = MeasureSet.from_matrix(SampleSpace.of_size(3), self.DRIFT)
        assert len(ms.generators) == len(ms) == 3
        for k, g in enumerate(ms.generators):
            assert g.weights.tobytes() == ms.weights_matrix[k].tobytes()
            assert not g.weights.flags.writeable

    def test_rows_renormalized_like_measures(self):
        s = SampleSpace.of_size(3)
        ms = MeasureSet.from_matrix(s, self.DRIFT)
        for row, stored in zip(self.DRIFT, ms.weights_matrix):
            assert stored.tobytes() == Measure(s, row).weights.tobytes()

    def test_set_of_measures_keeps_their_bits(self):
        rng = rng_from_seed(105)
        s = SampleSpace.of_size(9)
        gens = [Measure(s, rng.dirichlet(np.ones(9))) for _ in range(40)]
        ms = MeasureSet(gens)
        for k, g in enumerate(gens):
            assert ms.weights_matrix[k].tobytes() == g.weights.tobytes()
            assert ms.generators[k] == g

    def test_matrix_and_measures_give_equal_sets(self):
        s = SampleSpace.of_size(3)
        from_rows = MeasureSet.from_matrix(s, self.DRIFT)
        from_measures = MeasureSet([Measure(s, row) for row in self.DRIFT])
        assert from_rows == from_measures
        assert hash(from_rows) == hash(from_measures)
        assert from_rows != MeasureSet.from_matrix(s, self.DRIFT[:2])
        assert from_rows != MeasureSet.from_matrix(s, self.DRIFT[::-1])

    @pytest.mark.parametrize(
        "row, error",
        [
            ([-0.1, 1.1], ArgumentError),
            ([float("nan"), 0.5], ArgumentError),
            ([0.4, 0.5], ArgumentError),
            ([0.5, 0.25, 0.25], StructuralError),
        ],
    )
    def test_bad_rows_raise_like_measure(self, row, error):
        s = SampleSpace.of_size(2)
        with pytest.raises(error):
            Measure(s, row)
        with pytest.raises(error):
            MeasureSet.from_matrix(s, [row])
        if len(row) == s.n:
            with pytest.raises(error):
                MeasureSet.from_matrix(s, [[0.5, 0.5], row])

    def test_matrix_shape_checked(self):
        s = SampleSpace.of_size(2)
        with pytest.raises(StructuralError):
            MeasureSet.from_matrix(s, [0.5, 0.5])
        with pytest.raises(ArgumentError):
            MeasureSet.from_matrix(s, np.empty((0, 2)))

    def test_duplicate_rows_accepted(self):
        rows = [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]]
        ms, res = built_silently_and_certified(
            lambda: MeasureSet.from_matrix(SampleSpace.of_size(2), rows)
        )
        assert len(ms) == 3
        # the uniform generator is worst at eta = 2, the mean under it
        assert res.alpha == 1.0

    def test_input_array_not_aliased(self):
        rows = self.DRIFT.copy()
        ms = MeasureSet.from_matrix(SampleSpace.of_size(3), rows)
        assert rows.tobytes() == self.DRIFT.tobytes()
        assert not ms.weights_matrix.flags.writeable


class TestExpectation:
    def test_example_value(self, two_point):
        _, ms, xi, _ = two_point
        assert expectation(ms.generators[0], xi) == pytest.approx(6.5)

    def test_constant_preserved(self, two_point):
        space, ms, _, _ = two_point
        c = RandomVariable(space, [3.25, 3.25])
        for g in ms.generators:
            assert expectation(g, c) == pytest.approx(3.25)

    def test_plain_mean(self, two_point):
        space, _, xi, _ = two_point
        assert expectation(Measure(space, [0.5, 0.5]), xi) == pytest.approx(5.0)


class TestConditionalExpectation:
    def test_trivial_algebra_gives_mean(self, two_point):
        space, _, xi, triv = two_point
        out = conditional_expectation(Measure(space, [0.5, 0.5]), xi, triv)
        assert list(out.values) == [5.0, 5.0]

    def test_singletons_return_input(self, two_point):
        space, ms, xi, _ = two_point
        out = conditional_expectation(ms.generators[0], xi, PartitionAlgebra.discrete(space))
        assert out == xi

    def test_matches_unconditional_on_trivial(self, two_point):
        space, ms, xi, triv = two_point
        out = conditional_expectation(ms.generators[0], xi, triv)
        assert out.values[0] == pytest.approx(6.5)

    def test_zero_mass_block_errors(self):
        space = SampleSpace.of_size(3)
        p = Measure(space, [0.5, 0.5, 0.0])
        c = PartitionAlgebra(space, [(0, 1), (2,)])
        x = RandomVariable(space, [1.0, 2.0, 3.0])
        with pytest.raises(ZeroMassBlockError) as err:
            conditional_expectation(p, x, c)
        assert err.value.block == (2,)


class TestMixAndReference:
    def test_even_mixture(self, two_point):
        _, ms, _, _ = two_point
        p = mix(ms, MixtureWeights([0.5, 0.5]))
        assert list(p.weights) == [0.5, 0.5]

    def test_vertex_returns_generator(self, two_point):
        _, ms, _, _ = two_point
        assert mix(ms, MixtureWeights([1.0, 0.0])) == ms.generators[0]

    def test_weight_count_checked(self, two_point):
        _, ms, _, _ = two_point
        with pytest.raises(ArgumentError):
            mix(ms, MixtureWeights([1.0]))

    def test_off_simplex_rejected(self):
        with pytest.raises(ArgumentError):
            MixtureWeights([0.7, 0.7])

    @pytest.mark.parametrize(
        "lam",
        [[math.nan, 1.0], [math.nan], [math.inf, 1.0], [1.0, -math.inf], [0.5, 0.5, math.nan]],
    )
    def test_non_finite_rejected(self, lam):
        # NaN passes both the sign test and the sum test, so it is refused first
        with pytest.raises(ArgumentError, match="finite"):
            MixtureWeights(lam)

    def test_weights_are_clipped_renormalized_and_read_only(self):
        lam = np.array([0.5 + 2e-13, -1e-13, 0.5])
        got = MixtureWeights(lam).lam
        want = np.clip(lam, 0.0, None)
        assert np.array_equal(got, want / want.sum())
        assert lam[1] == -1e-13  # the caller's array is not touched
        assert not got.flags.writeable

    def test_reference_is_uniform_average(self, two_point):
        _, ms, _, _ = two_point
        assert list(ms.mean_row()) == [0.5, 0.5]

    def test_reference_single_generator(self):
        s = SampleSpace.of_size(2)
        g = Measure(s, [0.3, 0.7])
        assert Measure(s, MeasureSet([g]).mean_row()) == g


class TestProperness:
    def test_example_is_proper(self, two_point):
        _, ms, _, _ = two_point
        assert ms.is_proper()

    def test_disjoint_supports_not_proper(self):
        s = SampleSpace.of_size(2)
        ms = MeasureSet([Measure(s, [1.0, 0.0]), Measure(s, [0.0, 1.0])])
        assert not ms.is_proper()

    def test_single_positive_generator(self):
        s = SampleSpace.of_size(3)
        assert MeasureSet([Measure(s, [0.2, 0.3, 0.5])]).is_proper()


class TestInvariants:
    def test_tower_property(self):
        rng = rng_from_seed(101)
        for _ in range(50):
            ms, xi, c = random_instance(rng)
            p = Measure(ms.space, ms.mean_row())  # the uniform mixture
            cond = conditional_expectation(p, xi, c)
            assert expectation(p, cond) == pytest.approx(expectation(p, xi), abs=1e-10)

    def test_orthogonal_projection(self):
        rng = rng_from_seed(102)
        for _ in range(50):
            ms, xi, c = random_instance(rng)
            p = Measure(ms.space, ms.mean_row())  # the uniform mixture
            cond = conditional_expectation(p, xi, c)
            eta = c.broadcast(rng.integers(-16, 17, size=c.num_blocks) / 16)
            inner = expectation(p, (xi - cond) * eta)
            assert inner == pytest.approx(0.0, abs=1e-10)

    def test_mix_expectation_linear_in_weights(self):
        rng = rng_from_seed(103)
        for _ in range(25):
            ms, xi, _ = random_instance(rng)
            w = rng.dirichlet(np.ones(len(ms)))
            lhs = expectation(mix(ms, MixtureWeights(w)), xi)
            rhs = sum(wk * expectation(g, xi) for wk, g in zip(w, ms.generators))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bayes_mixture_identity(self):
        rng = rng_from_seed(104)
        for _ in range(25):
            ms, xi, c = random_instance(rng)
            if not ms.is_proper() or len(ms) < 2:
                continue
            lam = float(rng.uniform(0.1, 0.9))
            p1, p2 = ms.generators[0], ms.generators[1]
            pair = MeasureSet([p1, p2])
            plam = mix(pair, MixtureWeights([lam, 1 - lam]))
            # the densities dP/dP_lam, 0 where P_lam charges nothing
            d1, d2 = (
                RandomVariable(p.space, np.divide(p.weights, plam.weights, out=np.zeros(p.space.n),
                                                  where=plam.weights > 0.0))
                for p in (p1, p2)
            )
            w1 = conditional_expectation(plam, d1, c) * lam
            w2 = conditional_expectation(plam, d2, c) * (1 - lam)
            assert np.max(np.abs(w1.values + w2.values - 1.0)) < 1e-10
            lhs = w1 * conditional_expectation(p1, xi, c) + w2 * conditional_expectation(p2, xi, c)
            rhs = conditional_expectation(plam, xi, c)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


class TestRandgenArguments:
    """The generators' contract violations are library errors, not bare ValueError."""

    def test_denominator_below_point_count(self):
        with pytest.raises(ArgumentError, match="denominator"):
            random_positive_measure(rng_from_seed(0), SampleSpace.of_size(5), denominator=4)

    @pytest.mark.parametrize("blocks", [0, 4])
    def test_block_count_outside_range(self, blocks):
        with pytest.raises(ArgumentError, match="block count"):
            random_partition(rng_from_seed(0), SampleSpace.of_size(3), blocks)

    def test_no_two_level_filtration_on_three_points(self):
        # a coarse level with a block of two leaves only singletons to refine into
        with pytest.raises(ArgumentError, match="64 draws on 3 points"):
            random_two_level_filtration(rng_from_seed(0), SampleSpace.of_size(3))
