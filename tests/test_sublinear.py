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
    ZeroMassBlockError,
    axiom_suite,
    conditional_expectation,
    ess_inf_conditional,
    ess_sup_conditional,
    holder_bound,
    mix,
    rho,
)
from robustmse.randgen import rng_from_seed, random_instance, random_variable
from robustmse.spaces import VALUE_TOL
from robustmse.sublinear import AxiomViolation


class TestRho:
    def test_example_value(self, two_point):
        _, ms, xi, _ = two_point
        out = rho(ms, xi)
        assert out == 6.5 and type(out) is float
        # the argmax and ties the rho command reports, from the set's own query
        assert ms.support(xi.values, VALUE_TOL * xi.unit) == (6.5, 0, (0,))

    def test_constant_preserving(self, two_point):
        space, ms, _, _ = two_point
        assert rho(ms, RandomVariable(space, [4.0, 4.0])) == pytest.approx(4.0)

    def test_negated_example(self, two_point):
        space, ms, _, _ = two_point
        # max of E1 = -6.5, E2 = -3.5 over the two generators
        x = RandomVariable(space, [-2.0, -8.0])
        assert rho(ms, x) == pytest.approx(-3.5)
        assert ms.support(x.values, VALUE_TOL * x.unit)[1] == 1

    def test_argmax_consistency(self):
        rng = rng_from_seed(7)
        for _ in range(50):
            ms, xi, _ = random_instance(rng)
            value, argmax, ties = ms.support(xi.values, VALUE_TOL * xi.unit)
            assert rho(ms, xi) == value
            vals = [float(g.weights @ xi.values) for g in ms.generators]
            assert value == pytest.approx(vals[argmax], abs=1e-12)
            for k in ties:
                assert vals[k] >= value - 1e-9

    def test_hull_invariance(self):
        # mixing existing generators into the list never changes rho
        rng = rng_from_seed(8)
        for _ in range(25):
            ms, xi, _ = random_instance(rng)
            w = rng.dirichlet(np.ones(len(ms)))
            extra = mix(ms, MixtureWeights(w))
            bigger = MeasureSet(list(ms.generators) + [extra])
            assert rho(bigger, xi) == pytest.approx(rho(ms, xi), abs=1e-12)

    def test_monotone_chain(self):
        rng = rng_from_seed(9)
        ms, xi, _ = random_instance(rng)
        chain = [xi]
        for _ in range(4):
            bump = rng.integers(0, 3, size=xi.space.n) / 16
            chain.append(chain[-1] + RandomVariable(xi.space, bump))
        values = [rho(ms, x) for x in chain]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestEnvelopes:
    def test_trivial_sup(self, two_point):
        _, ms, xi, triv = two_point
        assert list(ess_sup_conditional(ms, xi, triv).values) == [6.5, 6.5]

    def test_trivial_inf(self, two_point):
        _, ms, xi, triv = two_point
        assert list(ess_inf_conditional(ms, xi, triv).values) == [3.5, 3.5]

    def test_singletons_return_input(self, two_point):
        space, ms, xi, _ = two_point
        disc = PartitionAlgebra.discrete(space)
        assert ess_sup_conditional(ms, xi, disc) == xi
        assert ess_inf_conditional(ms, xi, disc) == xi

    def test_constant_input(self, two_point):
        space, ms, _, triv = two_point
        c = RandomVariable(space, [2.5, 2.5])
        assert list(ess_sup_conditional(ms, c, triv).values) == [2.5, 2.5]

    def test_zero_mass_block_everywhere_errors(self):
        space = SampleSpace.of_size(3)
        ms = MeasureSet([Measure(space, [0.5, 0.5, 0.0]), Measure(space, [0.25, 0.75, 0.0])])
        c = PartitionAlgebra(space, [(0, 1), (2,)])
        x = RandomVariable(space, [1.0, 2.0, 3.0])
        with pytest.raises(ZeroMassBlockError):
            ess_sup_conditional(ms, x, c)

    def test_zero_mass_generator_excluded_exactly(self):
        space = SampleSpace.of_size(3)
        dead = Measure(space, [0.5, 0.5, 0.0])  # charges nothing on block (2,)
        live = Measure(space, [0.25, 0.25, 0.5])
        ms = MeasureSet([dead, live])
        c = PartitionAlgebra(space, [(0, 1), (2,)])
        x = RandomVariable(space, [1.0, 2.0, 3.0])
        assert ess_sup_conditional(ms, x, c).values[2] == pytest.approx(3.0)

    def test_dominates_generator_conditionals(self):
        rng = rng_from_seed(11)
        for _ in range(25):
            ms, xi, c = random_instance(rng)
            upper = ess_sup_conditional(ms, xi, c)
            lower = ess_inf_conditional(ms, xi, c)
            assert np.all(lower.values <= upper.values + 1e-12)
            attained_hi = np.zeros(xi.space.n, dtype=bool)
            for g in ms.generators:
                cond = conditional_expectation(g, xi, c)
                assert np.all(cond.values <= upper.values + 1e-12)
                assert np.all(cond.values >= lower.values - 1e-12)
                attained_hi |= np.abs(cond.values - upper.values) < 1e-12
            assert attained_hi.all()

    def test_single_generator_equals_conditional(self):
        rng = rng_from_seed(12)
        ms, xi, c = random_instance(rng)
        single = MeasureSet([ms.generators[0]])
        cond = conditional_expectation(ms.generators[0], xi, c)
        assert ess_sup_conditional(single, xi, c) == cond
        assert ess_inf_conditional(single, xi, c) == cond


class TestHolder:
    def test_symmetric_square_case(self, two_point):
        _, ms, xi, _ = two_point
        centered = xi - 5.0
        lhs, rhs = holder_bound(ms, centered, centered, 2.0, 2.0)
        assert lhs == pytest.approx(9.0, abs=1e-12)
        assert rhs == pytest.approx(9.0, abs=1e-12)

    def test_jensen_direction(self, two_point):
        space, ms, xi, _ = two_point
        one = RandomVariable(space, [1.0, 1.0])
        lhs, rhs = holder_bound(ms, xi, one, 2.0, 2.0)
        assert lhs <= rhs + 1e-10

    def test_zero_argument(self, two_point):
        space, ms, _, _ = two_point
        zero = RandomVariable(space, [0.0, 0.0])
        lhs, rhs = holder_bound(ms, zero, zero, 2.0, 2.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_non_conjugate_rejected(self, two_point):
        _, ms, xi, _ = two_point
        with pytest.raises(ArgumentError):
            holder_bound(ms, xi, xi, 2.0, 3.0)
        with pytest.raises(ArgumentError):
            holder_bound(ms, xi, xi, 1.0, 2.0)


class TestAxiomSuite:
    def test_no_violations_on_seeded_samples(self, two_point):
        _, ms, _, _ = two_point
        rng = rng_from_seed(13)
        samples = [random_variable(rng, ms.space) for _ in range(15)]
        report = axiom_suite(ms, samples)
        assert report.ok
        assert report.checks > 100

    def test_zero_homogeneity(self, two_point):
        space, ms, xi, _ = two_point
        report = axiom_suite(ms, [xi], scalars=(0.0,))
        assert report.ok
        assert rho(ms, xi * 0.0) == 0.0

    def test_monotone_pair(self, two_point):
        space, ms, xi, _ = two_point
        higher = xi + 1.0
        assert rho(ms, xi) <= rho(ms, higher)


class TestAxiomViolations:
    """Each axiom's violation record, from a rho broken at one variable."""

    def test_constant_preserving(self, two_point, break_rho):
        space, ms, _, _ = two_point
        # both axioms with an equality are broken from below
        break_rho(RandomVariable(space, [1.0, 1.0]), -1e-3)
        report = axiom_suite(ms, [], scalars=(1.0,))
        assert report.checks == 1
        assert report.violations == (
            AxiomViolation("constant_preserving", "rho(1.0) = 0.999", 0.999, 1.0),
        )

    def test_monotonicity(self, two_point, break_rho):
        space, ms, xi, _ = two_point
        # max(xi, other) = (8, 8), whose rho is 8: xi's 6.5 raised above it
        other = RandomVariable(space, [8.0, 2.0])
        break_rho(xi, 2.0)
        report = axiom_suite(ms, [xi, other], scalars=())
        assert report.checks == 3
        assert report.violations == (
            AxiomViolation("monotonicity", "samples (0, max(0,1))", 8.5, 8.0),
        )
        break_rho(other, 2.0)
        report = axiom_suite(ms, [xi, other], scalars=())
        assert report.violations == (
            AxiomViolation("monotonicity", "samples (1, max(0,1))", 8.5, 8.0),
        )

    def test_subadditivity(self, two_point, break_rho):
        space, ms, xi, _ = two_point
        # xi and (1, 3) take their max at the same generator: 9 = 6.5 + 2.5
        other = RandomVariable(space, [1.0, 3.0])
        break_rho(xi + other, 0.5)
        report = axiom_suite(ms, [xi, other], scalars=())
        assert report.violations == (AxiomViolation("subadditivity", "samples (0,1)", 9.5, 9.0),)

    def test_positive_homogeneity(self, two_point, break_rho):
        _, ms, xi, _ = two_point
        break_rho(xi * 2.0, -1.0)
        report = axiom_suite(ms, [xi], scalars=(2.0,))
        assert report.checks == 2
        assert report.violations == (
            AxiomViolation("positive_homogeneity", "sample 0, lambda=2.0", 12.0, 13.0),
        )

    def test_negative_scalar_skipped(self, two_point, break_rho):
        _, ms, xi, _ = two_point
        # rho(-xi) = -3.5 is not -rho(xi) = -6.5; only the constant -1 is checked
        break_rho(xi * -1.0, 100.0)
        report = axiom_suite(ms, [xi], scalars=(-1.0,))
        assert report.checks == 1
        assert report.ok
