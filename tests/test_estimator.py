import math

import numpy as np
import pytest

from robustmse import (
    ArgumentError,
    EstimatorResult,
    Filtration,
    GuardRefusalError,
    Measure,
    MeasureSet,
    PartitionAlgebra,
    PropernessError,
    RandomVariable,
    SampleSpace,
    SolverConfig,
    brute_force_mmse,
    conditional_expectation,
    ess_sup_conditional,
    is_measurable,
    kernel_interval,
    kernel_member,
    minimax_gap,
    mix,
    ns_condition,
    optimality_ineq,
    penalized_value,
    solve_mmse,
    verify_saddle,
)
from robustmse.randgen import rng_from_seed, random_instance


def blocks_of(res, c):
    return np.array([res.eta_hat.values[b[0]] for b in c.blocks])


class TestSolveMmse:
    def test_example_instance(self, two_point):
        _, ms, xi, triv = two_point
        res = solve_mmse(ms, xi, triv)
        assert res.converged
        assert res.eta_hat.values == pytest.approx([5.0, 5.0], abs=1e-8)
        assert mix(ms, res.p_hat).weights == pytest.approx([0.5, 0.5], abs=1e-8)
        assert res.alpha == pytest.approx(9.0, abs=1e-10)
        assert res.solver == "saddle_iteration"

    def test_single_generator_is_classical(self):
        rng = rng_from_seed(21)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            single = MeasureSet([ms.generators[0]])
            res = solve_mmse(single, xi, c)
            cond = conditional_expectation(ms.generators[0], xi, c)
            assert np.max(np.abs(res.eta_hat.values - cond.values)) < 1e-9

    def test_full_information_recovers_input(self, two_point):
        space, ms, xi, _ = two_point
        res = solve_mmse(ms, xi, PartitionAlgebra.discrete(space))
        assert res.eta_hat == xi
        assert res.alpha == pytest.approx(0.0, abs=1e-12)

    def test_measurable_short_circuit(self, two_point):
        space, ms, _, triv = two_point
        const = RandomVariable(space, [3.0, 3.0])
        res = solve_mmse(ms, const, triv)
        assert res.iterations == 0
        assert res.alpha == 0.0
        assert list(res.p_hat.lam) == [0.5, 0.5]

    def test_result_is_measurable_and_bounded(self):
        rng = rng_from_seed(22)
        for _ in range(20):
            ms, xi, c = random_instance(rng)
            res = solve_mmse(ms, xi, c)
            assert is_measurable(res.eta_hat, c)
            assert res.eta_hat.bound <= xi.bound + 1e-12

    def test_eta_hat_is_conditional_mean_under_p_hat(self):
        rng = rng_from_seed(23)
        for _ in range(20):
            ms, xi, c = random_instance(rng)
            res = solve_mmse(ms, xi, c)
            cond = conditional_expectation(mix(ms, res.p_hat), xi, c)
            assert np.max(np.abs(res.eta_hat.values - cond.values)) < 1e-7
            if not is_measurable(xi, c):
                # Caratheodory: a vertex mixture of at most B + 1 generators
                assert np.count_nonzero(res.p_hat.lam) <= c.num_blocks + 1

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_equivariance(self, s):
        rng = rng_from_seed(36)
        for _ in range(20):
            ms, xi, c = random_instance(rng)
            base = solve_mmse(ms, xi, c)
            scaled_xi = xi * s
            res = solve_mmse(ms, scaled_xi, c)
            assert res.converged
            assert res.alpha == pytest.approx(s * s * base.alpha, rel=1e-9, abs=0.0)
            assert np.max(np.abs(res.eta_hat.values - s * base.eta_hat.values)) <= (
                1e-9 * s * xi.bound
            )
            assert verify_saddle(ms, scaled_xi, c, res).passed

    def test_alpha_matches_worst_case_of_eta_hat(self):
        from robustmse import rho

        rng = rng_from_seed(35)
        for _ in range(20):
            ms, xi, c = random_instance(rng)
            res = solve_mmse(ms, xi, c)
            diff = xi - res.eta_hat
            assert res.alpha == pytest.approx(rho(ms, diff * diff).value, abs=1e-10)

    def test_nonconvergence_is_reported(self):
        # interior saddle: it needs both generators, so a solve capped before
        # its first generator addition must end in an explicit status
        space = SampleSpace.of_size(4)
        ms = MeasureSet(
            [
                Measure(space, [0.3125, 0.1875, 0.1875, 0.3125]),
                Measure(space, [0.1875, 0.375, 0.1875, 0.25]),
            ]
        )
        xi = RandomVariable(space, [-0.875, -1.9375, -0.8125, -1.875])
        res = solve_mmse(ms, xi, PartitionAlgebra.trivial(space), SolverConfig(max_iter=0))
        assert not res.converged
        assert res.saddle_gap > 0
        assert any("gap" in w for w in res.warnings)

    def test_non_proper_flagged(self):
        space = SampleSpace.of_size(2)
        ms = MeasureSet([Measure(space, [1.0, 0.0]), Measure(space, [0.5, 0.5])])
        xi = RandomVariable(space, [1.0, 3.0])
        res = solve_mmse(ms, xi, PartitionAlgebra.trivial(space))
        assert any("non-unique" in w for w in res.warnings)

    def test_bad_init_rejected(self, two_point):
        _, ms, xi, triv = two_point
        with pytest.raises(ArgumentError):
            solve_mmse(ms, xi, triv, init_weights=[-1.0, 2.0])


class TestBruteForce:
    def test_example_instance(self, two_point):
        _, ms, xi, triv = two_point
        res = brute_force_mmse(ms, xi, triv, 1e-3)
        assert res.eta_hat.values == pytest.approx([5.0, 5.0], abs=1e-3)
        assert res.alpha == pytest.approx(9.0, abs=1e-5)
        assert res.solver == "brute_force"

    def test_single_generator_matches_conditional(self):
        rng = rng_from_seed(24)
        ms, xi, c = random_instance(rng, max_blocks=3)
        single = MeasureSet([ms.generators[0]])
        res = brute_force_mmse(single, xi, c, 1e-3)
        cond = conditional_expectation(ms.generators[0], xi, c)
        assert np.max(np.abs(res.eta_hat.values - cond.values)) < 1e-3

    def test_constant_input(self, two_point):
        space, ms, _, triv = two_point
        const = RandomVariable(space, [1.5, 1.5])
        res = brute_force_mmse(ms, const, triv, 1e-3)
        assert res.eta_hat.values == pytest.approx([1.5, 1.5], abs=1e-5)
        assert res.alpha == pytest.approx(0.0, abs=1e-9)

    def test_block_guard(self):
        space = SampleSpace.of_size(5)
        ms = MeasureSet([Measure(space, [0.2] * 5)])
        xi = RandomVariable(space, [1.0, 2.0, 3.0, 4.0, 5.0])
        c = PartitionAlgebra.discrete(space)
        with pytest.raises(GuardRefusalError):
            brute_force_mmse(ms, xi, c, 1e-3)

    def test_grid_step_positive(self, two_point):
        _, ms, xi, triv = two_point
        with pytest.raises(ArgumentError):
            brute_force_mmse(ms, xi, triv, 0.0)


class TestVerifySaddle:
    def test_passes_at_solution(self, two_point):
        _, ms, xi, triv = two_point
        res = solve_mmse(ms, xi, triv)
        cert = verify_saddle(ms, xi, triv, res)
        assert cert.passed
        assert cert.max_over_P == pytest.approx(9.0, abs=1e-9)
        assert cert.value_at_saddle == pytest.approx(9.0, abs=1e-9)
        assert cert.min_over_eta == pytest.approx(9.0, abs=1e-9)

    def test_perturbed_estimator_fails_min_side(self, two_point):
        space, ms, xi, triv = two_point
        res = solve_mmse(ms, xi, triv)
        pert = EstimatorResult(
            eta_hat=RandomVariable(space, [5.5, 5.5]),
            p_hat=res.p_hat,
            alpha=res.alpha,
            saddle_gap=res.saddle_gap,
            iterations=res.iterations,
            solver=res.solver,
        )
        cert = verify_saddle(ms, xi, triv, pert)
        assert not cert.passed
        assert cert.value_at_saddle == pytest.approx(9.25, abs=1e-9)
        assert cert.value_at_saddle > cert.min_over_eta

    def test_single_generator_always_passes(self):
        rng = rng_from_seed(25)
        ms, xi, c = random_instance(rng)
        single = MeasureSet([ms.generators[0]])
        res = solve_mmse(single, xi, c)
        assert verify_saddle(single, xi, c, res).passed


class TestKernel:
    def test_center_is_member(self, two_point):
        _, ms, xi, triv = two_point
        assert kernel_member(ms, xi, triv, triv.broadcast([5.0]))

    def test_outside_range_is_not(self, two_point):
        _, ms, xi, triv = two_point
        assert not kernel_member(ms, xi, triv, triv.broadcast([7.0]))

    def test_generator_conditionals_are_members(self, two_point):
        _, ms, xi, triv = two_point
        for g in ms.generators:
            assert kernel_member(ms, xi, triv, conditional_expectation(g, xi, triv))

    def test_non_measurable_rejected(self, two_point):
        space, ms, xi, triv = two_point
        with pytest.raises(ArgumentError):
            kernel_member(ms, xi, triv, RandomVariable(space, [1.0, 2.0]))

    def test_interval_of_example(self, two_point):
        _, ms, xi, triv = two_point
        band = kernel_interval(ms, xi, triv)
        assert list(band.lower.values) == [3.5, 3.5]
        assert list(band.upper.values) == [6.5, 6.5]
        assert band.exact is None

    def test_interval_exact_flag_with_filtration(self, two_point):
        space, ms, xi, triv = two_point
        f = Filtration([triv, PartitionAlgebra.discrete(space)])
        band = kernel_interval(ms, xi, triv, filtration=f)
        assert band.exact is True

    def test_interval_requires_declared_level(self, two_point):
        space, ms, xi, triv = two_point
        f = Filtration([PartitionAlgebra.discrete(space)])
        with pytest.raises(ArgumentError):
            kernel_interval(ms, xi, triv, filtration=f)

    def test_interval_collapses_for_single_generator(self, two_point):
        _, ms, xi, triv = two_point
        single = MeasureSet([ms.generators[0]])
        band = kernel_interval(single, xi, triv)
        assert band.lower == band.upper

    def test_interval_discrete_returns_input(self, two_point):
        space, ms, xi, _ = two_point
        band = kernel_interval(ms, xi, PartitionAlgebra.discrete(space))
        assert band.lower == xi and band.upper == xi


class TestNsCondition:
    def test_holds_at_solution(self, two_point):
        _, ms, xi, triv = two_point
        rep = ns_condition(ms, xi, triv, triv.broadcast([5.0]))
        assert rep.holds
        assert rep.inf_value == pytest.approx(9.0, abs=1e-9)
        assert rep.rho_sq == pytest.approx(9.0, abs=1e-12)

    def test_fails_off_solution(self, two_point):
        _, ms, xi, triv = two_point
        rep = ns_condition(ms, xi, triv, triv.broadcast([6.5]))
        assert not rep.holds
        assert rep.rho_sq == pytest.approx(15.75, abs=1e-12)
        assert rep.inf_value == pytest.approx(6.75, abs=1e-8)

    def test_single_generator_at_conditional(self):
        rng = rng_from_seed(26)
        ms, xi, c = random_instance(rng)
        single = MeasureSet([ms.generators[0]])
        eta = conditional_expectation(ms.generators[0], xi, c)
        rep = ns_condition(single, xi, c, eta)
        assert rep.holds

    def test_unbounded_branch(self, two_point):
        # shifting by a constant pushes every coefficient one-signed
        space, ms, xi, triv = two_point
        rep = ns_condition(ms, xi + 0.0, triv, triv.broadcast([-2.0]))
        assert rep.inf_value == -math.inf
        assert not rep.holds


class TestOptimality:
    def test_margins_nonnegative_at_solution(self, two_point):
        _, ms, xi, triv = two_point
        etas = [triv.broadcast([v]) for v in (0.0, 3.5, 6.5, 10.0)]
        rep = optimality_ineq(ms, xi, triv, triv.broadcast([5.0]), etas)
        assert rep.all_ok
        assert [e.margin for e in rep.entries] == pytest.approx([7.5, 2.25, 2.25, 7.5])

    def test_equality_at_self(self, two_point):
        _, ms, xi, triv = two_point
        eta_hat = triv.broadcast([5.0])
        rep = optimality_ineq(ms, xi, triv, eta_hat, [eta_hat])
        assert rep.entries[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_single_generator_orthogonality(self):
        rng = rng_from_seed(27)
        ms, xi, c = random_instance(rng)
        single = MeasureSet([ms.generators[0]])
        eta_hat = conditional_expectation(ms.generators[0], xi, c)
        etas = [c.broadcast(rng.integers(-16, 17, size=c.num_blocks) / 16) for _ in range(5)]
        assert optimality_ineq(single, xi, c, eta_hat, etas).all_ok


class TestPenalized:
    def test_finite_at_upper_envelope_shift(self, two_point):
        _, ms, xi, triv = two_point
        assert penalized_value(ms, xi, triv, triv.broadcast([6.5])) == pytest.approx(15.75)

    def test_infinite_below_envelope(self, two_point):
        _, ms, xi, triv = two_point
        assert penalized_value(ms, xi, triv, triv.broadcast([5.0])) == math.inf

    def test_boundary_is_finite(self, two_point):
        _, ms, xi, triv = two_point
        upper = ess_sup_conditional(ms, xi, triv)
        val = penalized_value(ms, xi, triv, upper)
        assert val == pytest.approx(15.75)

    def test_non_strictly_positive_refused(self):
        space = SampleSpace.of_size(2)
        ms = MeasureSet([Measure(space, [1.0, 0.0]), Measure(space, [0.5, 0.5])])
        xi = RandomVariable(space, [1.0, 2.0])
        triv = PartitionAlgebra.trivial(space)
        with pytest.raises(PropernessError):
            penalized_value(ms, xi, triv, triv.broadcast([2.0]))


class TestMinimaxGap:
    def test_example_gap(self, two_point):
        _, ms, xi, triv = two_point
        rep = minimax_gap(ms, xi, triv)
        assert rep.minimax == pytest.approx(15.75, abs=1e-9)
        assert rep.maximin == pytest.approx(9.0, abs=1e-9)
        assert rep.gap == pytest.approx(6.75, abs=1e-8)
        assert not rep.ess_sup_is_mmse

    def test_single_generator_closes_gap(self):
        rng = rng_from_seed(28)
        for _ in range(5):
            ms, xi, c = random_instance(rng)
            single = MeasureSet([ms.generators[0]])
            rep = minimax_gap(single, xi, c)
            assert abs(rep.gap) <= 1e-8
            assert rep.ess_sup_is_mmse

    def test_measurable_input_closes_gap(self, two_point):
        space, ms, _, _ = two_point
        disc = PartitionAlgebra.discrete(space)
        xi = RandomVariable(space, [1.0, 4.0])
        rep = minimax_gap(ms, xi, disc)
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        assert rep.ess_sup_is_mmse


class TestUniqueness:
    def test_restarts_agree(self):
        rng = rng_from_seed(29)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            base = solve_mmse(ms, xi, c)
            for _ in range(3):
                init = rng.dirichlet(np.ones(len(ms)))
                other = solve_mmse(ms, xi, c, init_weights=init)
                assert np.max(np.abs(other.eta_hat.values - base.eta_hat.values)) < 1e-5
                assert abs(other.alpha - base.alpha) < 1e-8

    def test_kernel_membership_of_solutions(self):
        rng = rng_from_seed(30)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            res = solve_mmse(ms, xi, c)
            assert kernel_member(ms, xi, c, res.eta_hat)

    def test_optimality_margins_at_solutions(self):
        rng = rng_from_seed(34)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            res = solve_mmse(ms, xi, c)
            etas = [
                c.broadcast(rng.integers(-32, 33, size=c.num_blocks) / 16)
                for _ in range(6)
            ]
            rep = optimality_ineq(ms, xi, c, res.eta_hat, etas, tol=1e-9)
            assert rep.all_ok
