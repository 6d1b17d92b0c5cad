import json
import math

import numpy as np
import pytest

import robustmse.estimator
from robustmse import (
    ArgumentError,
    EstimatorResult,
    GuardRefusalError,
    Measure,
    MeasureSet,
    MixtureWeights,
    PartitionAlgebra,
    PropernessError,
    RandomVariable,
    SampleSpace,
    SolveTrace,
    StructuralError,
    TreeModel,
    ZeroMassBlockError,
    brute_force_mmse,
    conditional_envelopes,
    conditional_expectation,
    ess_sup_conditional,
    expectation,
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
from robustmse.cli import main as cli_main
from robustmse.gexp import tree_measure_set
from robustmse.instances import Instance, canonical_dict, estimator_result_dict
from robustmse.randgen import (
    random_instance,
    random_measure_set,
    random_partition,
    random_variable,
    rng_from_seed,
)
from robustmse.simplexlp import box_epigraph_min


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
            assert res.alpha == pytest.approx(rho(ms, diff * diff), abs=1e-10)

    @pytest.mark.usefixtures("fresh_tables")
    def test_nonconvergence_is_reported(self, monkeypatch):
        # interior saddle: it needs both generators, so a solve capped before
        # its first generator addition must end in an explicit status
        monkeypatch.setattr(robustmse.estimator, "MAX_ADDITIONS", 0)
        space = SampleSpace.of_size(4)
        ms = MeasureSet(
            [
                Measure(space, [0.3125, 0.1875, 0.1875, 0.3125]),
                Measure(space, [0.1875, 0.375, 0.1875, 0.25]),
            ]
        )
        xi = RandomVariable(space, [-0.875, -1.9375, -0.8125, -1.875])
        res = solve_mmse(ms, xi, PartitionAlgebra.trivial(space))
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
        space, ms, xi, triv = two_point
        with pytest.raises(ArgumentError):
            solve_mmse(ms, xi, triv, init_weights=[-1.0, 2.0])
        # also a non-finite weight, and on a measurable xi, which is its own
        # estimator and returns before the weights are read
        disc = PartitionAlgebra.discrete(space)
        bad = ([-1.0, 2.0], [1.0], [0.5, 0.25, 0.25], [0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0])
        for init in bad:
            for c in (triv, disc):
                with pytest.raises(ArgumentError, match="init_weights"):
                    solve_mmse(ms, xi, c, init_weights=init)
        assert solve_mmse(ms, xi, disc, init_weights=[0.0, 1.0]).eta_hat == xi


class TestBruteForce:
    def test_example_instance(self, two_point):
        _, ms, xi, triv = two_point
        res = brute_force_mmse(ms, xi, triv)
        assert res.converged
        assert res.iterations > 0
        assert res.eta_hat.values == pytest.approx([5.0, 5.0], abs=1e-3)
        assert res.alpha == pytest.approx(9.0, abs=1e-5)
        assert res.solver == "brute_force"

    def test_single_generator_matches_conditional(self):
        rng = rng_from_seed(24)
        ms, xi, c = random_instance(rng, max_blocks=3)
        single = MeasureSet([ms.generators[0]])
        res = brute_force_mmse(single, xi, c)
        cond = conditional_expectation(ms.generators[0], xi, c)
        assert np.max(np.abs(res.eta_hat.values - cond.values)) < 1e-3

    def test_constant_input(self, two_point):
        space, ms, _, triv = two_point
        const = RandomVariable(space, [1.5, 1.5])
        res = brute_force_mmse(ms, const, triv)
        assert res.eta_hat.values == pytest.approx([1.5, 1.5], abs=1e-5)
        assert res.alpha == pytest.approx(0.0, abs=1e-9)

    def test_zero_variable(self):
        # xi = 0: the start box is {0} widened by its rounding bound, and F at
        # its centre 0 is exactly 0
        rng = rng_from_seed(37)
        ms, xi, c = random_instance(rng)
        res = brute_force_mmse(ms, xi * 0.0, c)
        assert res.converged
        assert res.alpha == 0.0
        assert np.all(res.eta_hat.values == 0.0)

    def test_block_guard(self):
        space = SampleSpace.of_size(17)
        ms = MeasureSet([Measure(space, [1.0 / 17] * 17)])
        xi = RandomVariable(space, [float(i) for i in range(17)])
        c = PartitionAlgebra.discrete(space)
        with pytest.raises(GuardRefusalError):
            brute_force_mmse(ms, xi, c)

    @pytest.mark.parametrize("blocks", [8, 16])
    def test_agrees_with_solver_at_many_blocks(self, blocks):
        rng = rng_from_seed(38 + blocks)
        space = SampleSpace.of_size(2 * blocks)
        for _ in range(2):
            ms = random_measure_set(rng, space, 12, denominator=64)
            xi = random_variable(rng, space)
            c = random_partition(rng, space, blocks)
            res = brute_force_mmse(ms, xi, c)
            solved = solve_mmse(ms, xi, c)
            assert res.converged
            assert abs(res.alpha - solved.alpha) <= 1e-12 * xi.bound**2
            assert np.max(np.abs(res.eta_hat.values - solved.eta_hat.values)) <= (
                1e-5 * xi.bound
            )

    @pytest.mark.parametrize("s", [1e-120, 1e-6, 1e-3, 1e3, 1e6, 1e120])
    def test_scale_equivariance(self, s):
        rng = rng_from_seed(39)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            base = brute_force_mmse(ms, xi, c)
            res = brute_force_mmse(ms, xi * s, c)
            assert res.converged
            assert abs(res.alpha - s * s * base.alpha) <= 1e-10 * (s * xi.bound) ** 2
            assert np.max(np.abs(res.eta_hat.values - s * base.eta_hat.values)) <= (
                1e-5 * s * xi.bound
            )

    @pytest.mark.parametrize("k", [-300, 300])
    def test_exact_under_a_power_of_two(self, k):
        # the ellipsoid runs in units of 2^e, e the exponent of R: scaling xi
        # by 2^k moves e by k and leaves every iterate as it was
        s = 2.0**k
        rng = rng_from_seed(39)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            base, res = brute_force_mmse(ms, xi, c), brute_force_mmse(ms, xi * s, c)
            assert np.array_equal(res.eta_hat.values, base.eta_hat.values * s)
            assert res.alpha == base.alpha * s * s
            assert res.saddle_gap == base.saddle_gap * s * s
            assert (res.iterations, res.converged) == (base.iterations, base.converged)

    def test_certified_minimum(self):
        # alpha is certified within 1e-13 bound^2 of min F, so no point of
        # the box may beat it by more
        rng = rng_from_seed(40)
        for _ in range(10):
            ms, xi, c = random_instance(rng)
            res = brute_force_mmse(ms, xi, c)
            M = xi.bound
            assert abs(res.saddle_gap) <= 1e-12 * M * M
            points = rng.uniform(-M, M, size=(200, c.num_blocks))
            dev = xi.values[None, :] - points[:, c.labels]
            F = np.max(dev**2 @ ms.weights_matrix.T, axis=1)
            assert np.min(F) >= res.alpha - 1e-13 * M * M

    def test_saddle_gap_is_the_certified_bound_gap(self):
        # the gap between alpha and the ellipsoid's lower bound; the oracle
        # builds no mixture. Draw 290 is a proper set with K = 5, n = 5, B = 2
        rng = rng_from_seed(5)
        for i in range(300):
            ms, xi, c = random_instance(rng, 6, 3, 5)
            res = brute_force_mmse(ms, xi, c)
            assert res.converged and res.p_hat is None, i
            assert 0.0 <= res.saddle_gap <= 1e-13 * xi.unit**2, i

    @pytest.mark.usefixtures("fresh_tables")
    def test_step_cap_reports_nonconvergence(self, two_point, monkeypatch):
        _, ms, xi, triv = two_point
        monkeypatch.setattr(robustmse.estimator, "MAX_ELLIPSOID_STEPS", 1)
        res = brute_force_mmse(ms, xi, triv)
        assert not res.converged
        assert res.iterations == 1
        assert any("ellipsoid" in w for w in res.warnings)

    def test_clipping_into_the_envelope_box_raises_no_r_k(self):
        # the ellipsoid starts around the box between the conditional
        # envelopes: clipping eta into it on a block moves eta toward the
        # conditional mean of every generator that charges the block. Sets
        # with zero weights are mostly not proper; xi constant on a block, or
        # a single generator, gives a box of zero width there, which the
        # oracle widens
        rng = rng_from_seed(2701)
        for i in range(300):
            n = int(rng.integers(2, 9))
            space = SampleSpace.of_size(n)
            c = random_partition(rng, space, int(rng.integers(1, n + 1)))
            k = 1 if i % 10 == 0 else int(rng.integers(2, 7))
            W = rng.integers(1, 9, size=(k, n)) * (rng.random((k, n)) < 0.6)
            W[np.arange(k), rng.integers(n, size=k)] += 1  # every generator charges a point
            for b in c.blocks:  # and some generator every block
                W[rng.integers(k), b[0]] += 1
            x = rng.integers(-16, 17, size=n) / 8.0
            if i % 3 == 0:
                x[list(c.blocks[0])] = x[c.blocks[0][0]]
            ms = MeasureSet.from_matrix(space, W / W.sum(axis=1, keepdims=True))
            xi = RandomVariable(space, x)
            lo, hi = (e.values[c.first] for e in conditional_envelopes(ms, xi, c))
            R = xi.unit
            for eta in rng.uniform(-3.0 * R, 3.0 * R, size=(20, c.num_blocks)):
                r = ms.weights_matrix @ (x - eta[c.labels]) ** 2
                clipped = np.clip(eta, lo, hi)
                r_clipped = ms.weights_matrix @ (x - clipped[c.labels]) ** 2
                assert np.all(r_clipped <= r + 1e-13 * R * R), i
            res = brute_force_mmse(ms, xi, c)
            assert res.converged and 0.0 <= res.saddle_gap <= 1e-13 * R * R, i

    def test_steps_on_a_fixed_corpus(self):
        # from the ball of radius sqrt(B) * R around the midpoint, with
        # central cuts, this corpus took 45,497 steps; the envelope box and
        # deep cuts must take at most half as many
        rng = rng_from_seed(2727)
        runs = [brute_force_mmse(*random_instance(rng, 12, 6, 10)) for _ in range(100)]
        assert all(res.converged for res in runs)
        assert sum(res.iterations for res in runs) <= 45_497 // 2

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e6])
    def test_agrees_with_solver_under_a_shift(self, shift):
        # the oracle works on xi - m in units of R, half the range of xi, so
        # its stop rule does not loosen with the square of an offset
        rng = rng_from_seed(77)
        for _ in range(100):
            ms, xi, c = random_instance(rng, max_points=12, max_blocks=5, max_generators=10)
            res = brute_force_mmse(ms, xi + shift, c)
            solved = solve_mmse(ms, xi + shift, c)
            assert res.converged
            assert res.iterations < robustmse.estimator.MAX_ELLIPSOID_STEPS
            assert abs(res.alpha - solved.alpha) <= 1e-9 * (1.0 + solved.alpha)


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

    def test_max_side_is_the_support_query(self):
        # the certificate takes its maximum from the set's support query,
        # which on an explicit set is the largest entry of the weight matrix
        # times (xi - eta_hat)^2, bit for bit
        ms, xi, c = random_instance(rng_from_seed(26))
        res = solve_mmse(ms, xi, c)
        cert = verify_saddle(ms, xi, c, res)
        sq = (xi.values - res.eta_hat.values) ** 2
        top = ms.support(sq, -math.inf)[0]
        assert cert.max_over_P == top == np.max(ms.weights_matrix @ sq) > 0.0


    def test_refuses_another_space_and_a_result_without_p_hat(self):
        space = SampleSpace(("a", "b", "c", "d"))
        rows = [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]]
        ms = MeasureSet.from_matrix(space, rows)
        xi = RandomVariable(space, [1.0, -1.0, 0.0, 0.5])
        c = PartitionAlgebra(space, [(0, 1), (2, 3)])
        res = solve_mmse(ms, xi, c)
        assert verify_saddle(ms, xi, c, res).passed
        # four other points, and five points: refused before any arithmetic
        elsewhere = MeasureSet.from_matrix(SampleSpace(("w", "x", "y", "z")), rows)
        five = MeasureSet.from_matrix(SampleSpace.of_size(5), [[0.2] * 5, [0.1, 0.2, 0.3, 0.2, 0.2]])
        for wrong in (elsewhere, five):
            with pytest.raises(StructuralError, match="different sample spaces"):
                verify_saddle(wrong, xi, c, res)
            # and so do the other certificates, alone and in one pass
            for check in (kernel_member, ns_condition):
                with pytest.raises(StructuralError, match="different sample spaces"):
                    check(wrong, xi, c, res.eta_hat)
            with pytest.raises(StructuralError, match="different sample spaces"):
                robustmse.estimator.certify(wrong, xi, c, res)
        # the oracle's result has no P_hat to audit, and a P_hat of another
        # length is no mixture of these generators
        with pytest.raises(ArgumentError, match="no p_hat"):
            verify_saddle(ms, xi, c, brute_force_mmse(ms, xi, c))
        with pytest.raises(ArgumentError, match="p_hat has 3 weights, not one per generator"):
            verify_saddle(ms, xi, c, res._replace(p_hat=MixtureWeights([0.5, 0.25, 0.25])))


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

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_membership_does_not_depend_on_units(self, scale):
        # eta_hat is a member; a quarter of bound(xi) above the upper envelope is not
        for _, ms, xi, c in ns_instances(2604, 40):
            eta_hat = solve_mmse(ms, xi, c).eta_hat
            shifted = ess_sup_conditional(ms, xi, c) + 0.25 * xi.bound
            assert kernel_member(ms, xi, c, eta_hat)
            assert not kernel_member(ms, xi, c, shifted)
            assert kernel_member(ms, xi * scale, c, eta_hat * scale)
            assert not kernel_member(ms, xi * scale, c, shifted * scale)

    def test_non_measurable_rejected(self, two_point):
        space, ms, xi, triv = two_point
        with pytest.raises(ArgumentError):
            kernel_member(ms, xi, triv, RandomVariable(space, [1.0, 2.0]))

    def test_interval_of_example(self, two_point):
        _, ms, xi, triv = two_point
        band = kernel_interval(ms, xi, triv)
        assert list(band.lower.values) == [3.5, 3.5]
        assert list(band.upper.values) == [6.5, 6.5]

    def test_interval_collapses_for_single_generator(self, two_point):
        _, ms, xi, triv = two_point
        single = MeasureSet([ms.generators[0]])
        band = kernel_interval(single, xi, triv)
        assert band.lower == band.upper

    def test_interval_discrete_returns_input(self, two_point):
        space, ms, xi, _ = two_point
        band = kernel_interval(ms, xi, PartitionAlgebra.discrete(space))
        assert band.lower == xi and band.upper == xi


class TestKernelWitness:
    """kernel_member and ns_condition certify from the solver's mixture before any LP."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        hull = robustmse.estimator.hull_membership

        def counted(*args, **kwargs):
            calls.append(args[0])
            return hull(*args, **kwargs)

        monkeypatch.setattr(robustmse.estimator, "hull_membership", counted)
        return calls

    def test_matches_lp_on_random_corpus(self, lp_calls):
        rng = rng_from_seed(77)
        for _ in range(400):
            ms, xi, c = random_instance(rng, max_points=12, max_blocks=5, max_generators=10)
            res = solve_mmse(ms, xi, c)
            assert res.converged
            assert kernel_member(ms, xi, c, res.eta_hat, witness=res.p_hat.lam)
            assert lp_calls == []  # P_hat certified it
            assert kernel_member(ms, xi, c, res.eta_hat)
            lp_calls.clear()

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_matches_lp_on_tree_solves(self, lp_calls, depth):
        rng = rng_from_seed(78 + depth)
        nodes = 2**depth - 1
        lo = rng.integers(2, 8, size=nodes)
        trees = [TreeModel.drift_bound(depth), TreeModel(depth, lo / 16, (lo + 4) / 16)]
        for tm in trees:
            ms = tree_measure_set(tm)
            for level in range(depth):
                xi = RandomVariable(ms.space, rng.integers(-32, 33, size=2**depth) / 16)
                c = tm.level_partition(level)
                res = solve_mmse(tm, xi, c)
                assert kernel_member(ms, xi, c, res.eta_hat, witness=res.p_hat.lam)
                assert lp_calls == []
                assert kernel_member(ms, xi, c, res.eta_hat)
                lp_calls.clear()

    def test_ns_matches_lp_on_random_corpus(self, lp_calls):
        rng = rng_from_seed(77)
        for _ in range(300):
            ms, xi, c = random_instance(rng, max_points=12, max_blocks=5, max_generators=10)
            res = solve_mmse(ms, xi, c)
            got = ns_condition(ms, xi, c, res.eta_hat, witness=res.p_hat.lam)
            assert lp_calls == []  # P_hat certified it
            want = ns_condition(ms, xi, c, res.eta_hat)
            assert (got.holds, got.active, got.rho_sq) == (True, want.active, want.rho_sq)
            assert abs(got.lower_bound - want.lower_bound) <= 1e-12 * xi.bound**2
            lp_calls.clear()

    @pytest.mark.parametrize("depth", [2, 3])
    def test_ns_matches_lp_on_tree_solves(self, lp_calls, depth):
        rng = rng_from_seed(88 + depth)
        nodes = 2**depth - 1
        lo = rng.integers(2, 8, size=nodes)
        for tm in (TreeModel.drift_bound(depth), TreeModel(depth, lo / 16, (lo + 4) / 16)):
            ms = tree_measure_set(tm)
            for level in range(depth):
                xi = RandomVariable(ms.space, rng.integers(-32, 33, size=2**depth) / 16)
                c = tm.level_partition(level)
                res = solve_mmse(tm, xi, c)
                got = ns_condition(ms, xi, c, res.eta_hat, witness=res.p_hat.lam)
                assert lp_calls == []
                want = ns_condition(ms, xi, c, res.eta_hat)
                assert (got.holds, got.active) == (True, want.active)
                assert abs(got.lower_bound - want.lower_bound) <= 1e-12 * xi.bound**2
                lp_calls.clear()

    @pytest.mark.parametrize("kind", ["explicit", "tree"])
    def test_solve_command_runs_no_lp(self, lp_calls, tmp_path, kind):
        # P_hat certifies both the kernel and the NS condition
        if kind == "explicit":
            doc = {
                "omega": ["a", "b", "c", "d"],
                "generators": [[0.3125, 0.1875, 0.1875, 0.3125], [0.1875, 0.375, 0.1875, 0.25]],
                "xi": [-0.875, -1.9375, -0.8125, -1.875],
                "partition": [[0, 1], [2, 3]],
            }
        else:
            leaves = [((5 * i) % 7 - 3) / 4 for i in range(8)]
            doc = {
                "tree": {"depth": 3, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": leaves},
                "options": {"level": 1},
            }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert lp_calls == []

    @pytest.mark.parametrize("offset", [1e4, 1e5, 1e6])
    def test_solve_command_on_shifted_xi(self, lp_calls, tmp_path, offset):
        # the draws of this corpus that fail the active-set NS test once xi is
        # shifted by the offset (a known fault of the hull LP); P_hat
        # certifies them
        rng = rng_from_seed(77)
        cases = [
            random_instance(rng, max_points=12, max_blocks=5, max_generators=10) for _ in range(261)
        ]
        failing = [
            i for i, (ms, xi, c) in enumerate(cases)
            if not ns_condition(ms, xi + offset, c, solve_mmse(ms, xi + offset, c).eta_hat).holds
        ]
        assert failing
        for i in failing:
            ms, xi, c = cases[i]
            inst = Instance(ms.space, ms, xi + offset, c, None, None, {})
            path = tmp_path / f"shifted-{i}.json"
            path.write_text(json.dumps(canonical_dict(inst)))
            lp_calls.clear()  # the reference NS calls above
            assert cli_main(["solve", str(path), "--out", str(tmp_path / "out.json")]) == 0
            assert lp_calls == []

    def fallback_cases(self, two_point):
        """(eta_tilde, witness) pairs the witness test must reject."""
        triv = two_point[3]
        center, half = triv.broadcast([5.0]), np.array([0.5, 0.5])  # u = (1.5, -1.5)
        tol = 1e-9
        return {
            "wrong length": (center, np.array([0.5, 0.5, 0.0])),
            # at eta = 7, u = (-0.5, -3.5): (7/6, -1/6) balances u and sums to 1
            "negative entry": (triv.broadcast([7.0]), np.array([7.0, -1.0]) / 6.0),
            "sum off by 2 tol": (center, half * (1.0 + 2.0 * tol)),
            "zero weights": (triv.broadcast([7.0]), np.zeros(2)),
            # eta = 5.5 is in the kernel [3.5, 6.5], but P_hat does not prove it
            "perturbed eta": (triv.broadcast([5.5]), half),
        }

    @pytest.mark.parametrize(
        "case", ["wrong length", "negative entry", "sum off by 2 tol", "zero weights", "perturbed eta"]
    )
    def test_failed_witness_falls_back_to_lp(self, two_point, lp_calls, case):
        _, ms, xi, triv = two_point
        eta, lam = self.fallback_cases(two_point)[case]
        verdict = kernel_member(ms, xi, triv, eta, witness=lam)
        assert len(lp_calls) == 1
        assert verdict == kernel_member(ms, xi, triv, eta)
        assert verdict == (case not in ("negative entry", "zero weights"))

    @pytest.mark.parametrize(
        "case", ["wrong length", "negative entry", "sum off by 2 tol", "zero weights", "perturbed eta"]
    )
    def test_failed_ns_witness_falls_back_to_lp(self, two_point, lp_calls, case):
        _, ms, xi, triv = two_point
        eta, lam = self.fallback_cases(two_point)[case]
        report = ns_condition(ms, xi, triv, eta, witness=lam)
        assert len(lp_calls) == 1
        assert report == ns_condition(ms, xi, triv, eta)


def exact_box_infimum(ms, xi, c, eta):
    """min over |eta'| <= bound(xi) of rho[(xi - eta)(xi - eta')], by the epigraph LP."""
    resid = xi - eta
    a = [expectation(g, resid * xi) for g in ms.generators]
    u = [
        [expectation(g, resid * c.broadcast(np.eye(c.num_blocks)[j])) for j in range(c.num_blocks)]
        for g in ms.generators
    ]
    value, _ = box_epigraph_min(np.array(a), np.array(u), xi.bound)
    return value


def ns_instances(seed, count):
    rng = rng_from_seed(seed)
    for _ in range(count):
        n = int(rng.integers(4, 12))
        space = SampleSpace.of_size(n)
        ms = random_measure_set(rng, space, int(rng.integers(2, 8)))
        xi = random_variable(rng, space)
        c = random_partition(rng, space, int(rng.integers(1, min(4, n) + 1)))
        yield rng, ms, xi, c


class TestNsCondition:
    def test_holds_at_solution(self, two_point):
        _, ms, xi, triv = two_point
        rep = ns_condition(ms, xi, triv, triv.broadcast([5.0]))
        assert rep.holds
        assert rep.lower_bound == pytest.approx(9.0, abs=1e-9)
        assert rep.rho_sq == pytest.approx(9.0, abs=1e-12)
        assert rep.active == 2

    def test_fails_off_solution(self, two_point):
        _, ms, xi, triv = two_point
        eta = triv.broadcast([6.5])
        rep = ns_condition(ms, xi, triv, eta)
        assert not rep.holds
        assert rep.rho_sq == pytest.approx(15.75, abs=1e-12)
        # only a bound is certified; the exact infimum comes from the LP
        assert rep.lower_bound <= 6.75
        assert exact_box_infimum(ms, xi, triv, eta) == pytest.approx(6.75, abs=1e-8)

    @pytest.mark.usefixtures("fresh_tables")
    def test_lower_bound_is_valid(self, monkeypatch):
        # a wide active set makes the hull test pass away from eta_hat too
        finite_off_solution = 0
        for rng, ms, xi, c in ns_instances(2601, 30):
            eta_hat = solve_mmse(ms, xi, c).eta_hat
            shift = c.broadcast(rng.normal(size=c.num_blocks) * 0.1 * xi.bound)
            for eta in (eta_hat, eta_hat + shift):
                exact = exact_box_infimum(ms, xi, c, eta)
                for tol in (1e-6, 0.5):
                    monkeypatch.setattr(robustmse.estimator, "NS_TOL", tol)
                    rep = ns_condition(ms, xi, c, eta)
                    assert rep.lower_bound <= exact + 1e-12 * xi.bound**2
                    if eta is not eta_hat:
                        finite_off_solution += rep.lower_bound > -math.inf
        assert finite_off_solution >= 5

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tight_at_solution(self, scale):
        for _, ms, xi, c in ns_instances(2602, 30):
            xi = xi * scale
            rep = ns_condition(ms, xi, c, solve_mmse(ms, xi, c).eta_hat)
            assert rep.holds
            assert 1 <= rep.active <= len(ms)
            assert abs(rep.rho_sq - rep.lower_bound) <= 1e-6 * xi.bound**2

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_rejects_perturbed_solution(self, scale):
        for rng, ms, xi, c in ns_instances(2603, 60):
            xi = xi * scale
            eta_hat = solve_mmse(ms, xi, c).eta_hat
            noise = c.broadcast(rng.normal(size=c.num_blocks) * 1e-3 * xi.bound)
            assert not ns_condition(ms, xi, c, eta_hat + noise).holds

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
        assert rep.lower_bound == -math.inf
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

    def test_one_envelope_same_bits(self, monkeypatch):
        # minimax_gap forms the upper envelope once and penalizes it at
        # itself: its minimax is penalized_value at that envelope and its
        # maximin solve_mmse's alpha, bit for bit, on the acceptance sets
        real = robustmse.estimator.conditional_envelopes
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        rng = rng_from_seed(6021)
        pinned = 0
        for _ in range(200):
            ms, xi, c = random_instance(rng, max_points=6, max_blocks=3, max_generators=5)
            try:
                want = (penalized_value(ms, xi, c, real(ms, xi, c)[1]), solve_mmse(ms, xi, c).alpha)
            except PropernessError:
                with pytest.raises(PropernessError):
                    minimax_gap(ms, xi, c)
                continue
            with monkeypatch.context() as m:
                m.setattr(robustmse.estimator, "conditional_envelopes", counting)
                calls.clear()
                rep = minimax_gap(ms, xi, c)
            assert len(calls) == 1
            assert (rep.minimax, rep.maximin) == want
            pinned += 1
        assert pinned >= 100

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
            rep = optimality_ineq(ms, xi, c, res.eta_hat, etas)
            assert rep.all_ok


class TestTranslation:
    """rho preserves constants, so the estimator commutes with a shift:
    eta_hat(xi + a) = eta_hat(xi) + a with the same alpha. Residuals taken in
    expanded form, E[xi^2] - 2 eta E[xi 1_B] + eta^2 mass, cancel once the
    offset dwarfs the spread of xi."""

    @pytest.mark.parametrize("shift", [1e3, 1e4, 1e5, 1e6])
    def test_estimator_commutes_with_shift(self, shift):
        rng = rng_from_seed(77)
        for i in range(120):
            ms, xi, c = random_instance(rng)
            base = solve_mmse(ms, xi, c)
            moved = RandomVariable(xi.space, xi.values + shift)
            res = solve_mmse(ms, moved, c)
            M = xi.bound
            assert res.converged, (i, res.warnings)
            assert np.max(np.abs(res.eta_hat.values - shift - base.eta_hat.values)) <= 1e-6 * M
            assert abs(res.alpha - base.alpha) <= 1e-6 * M * M
            assert verify_saddle(ms, moved, c, res).passed, i


def test_face_ascent_drops_residue_weight():
    # the state at which the dual solve on this tree's corner set used to
    # stop: corner 66 left the face in an earlier Newton step but kept
    # 1.2e-15 of weight, which clips every step that lowers it to nothing
    from robustmse import TreeModel, tree_measure_set

    tm = TreeModel(
        3,
        [0.3125, 0.25, 0.125, 0.375, 0.4375, 0.375, 0.3125],
        [0.625, 0.4375, 0.625, 0.5625, 0.6875, 0.6875, 0.5],
    )
    x = RandomVariable(tm.space, [0, 0.3125, -1.9375, 2, -1, -0.875, 1.5625, -1.5])
    pool = robustmse.estimator._Pool(tree_measure_set(tm), x, tm.level_partition(2))
    corners = [73, 71, 66, 67, 74]
    s = np.array([pool.add(k) for k in corners])
    w = np.array([float.fromhex(h) for h in (
        "0x1.51515151514c5p-1", "0x1.0000000000007p-2", "0x1.5f038f9f95001p-50",
        "0x1.757575757596cp-4", "0x0.0p+0",
    )])
    # the solver's residual scale: the worst residual at its start point
    scale = pool.worst(pool.reference_cond)[2]

    def phi(s, w):
        return float(w @ pool.worst(pool.eta_of(w, s))[0][s])

    s_out, w_out = robustmse.estimator._face_ascent(pool, s, w, scale)
    assert 66 not in [pool.ids[row] for row in s_out]
    assert phi(s_out, w_out) > phi(s, w) + 1e-10


# Two solves of a tree's corner set that a stop rule of an exactly closed
# gap sends into line searches of 30 halvings (90 and 93 evaluations of
# phi); with the gap closed at the rounding of phi, every step takes its
# first evaluation. The third reaches a face where a just-added generator
# at weight 0 blocks the Newton step, and it leaves without a line search
# (stuck_drops). Whether a solve
# takes a branch turns on the last bits of its sums, so these inputs, and
# those of EXPLICIT_REPRODUCERS, are found anew when the summation order
# changes; they were chosen to give the same trace and alpha under
# OPENBLAS_CORETYPE=Prescott as on the default kernel. Each entry pins the
# trace and alpha, a hex float, of the dual solve on the corner set, then
# those of the block solve on the TreeModel (TreeModel.block_solve), which
# counts only the corners it adds and runs on Python floats, so its bits are
# the same on every kernel.
REPRODUCERS = {
    "per-node depth 3": (
        TreeModel(
            3,
            [0.0625, 0.375, 0.375, 0.125, 0.1875, 0.375, 0.125],
            [0.5625, 0.8125, 0.6875, 0.75, 0.625, 0.6875, 0.75],
        ),
        [2.0, 0.375, 1.25, -1.75, -0.4375, -1.75, 0.6875, -0.5],
        2,
        SolveTrace(additions=5, newton_steps=18, line_evals=18),
        "0x1.1ba6000000001p+0",
        SolveTrace(additions=4),
        "0x1.1ba6000000000p+0",
    ),
    "drift-bound depth 2": (
        TreeModel.drift_bound(2),
        [1.75, 0.625, -0.3125, -0.6875],
        0,
        SolveTrace(additions=1, newton_steps=2, line_evals=2),
        "0x1.32ab5f34e47efp+0",
        SolveTrace(additions=1),
        "0x1.32ab5f34e47f0p+0",
    ),
    "blocked at weight 0": (
        TreeModel.drift_bound(3),
        [-2.0, -1.5625, 0.625, 0.375, -0.625, 1.625, 1.125, 1.75],
        1,
        SolveTrace(additions=5, newton_steps=13, line_evals=13, stuck_drops=1),
        "0x1.7683f3958ef4ap+0",
        SolveTrace(additions=3),
        "0x1.7683f3958ef44p+0",
    ),
}

# Three explicit sets, each (rows, xi, blocks, trace, alpha), on the branches
# the solve takes only sometimes. The first is an order of the reproducer of
# tests/test_not_proper.py whose faces leave block {0, 1} uncharged. The
# second is the reproducer in its listed order at another xi: no single
# generator opens block {0, 1}, and a pair does (pair_additions). In the
# third, an accepted Newton step sets a weight to 0 and that generator leaves
# the face.
EXPLICIT_REPRODUCERS = {
    "face leaves a block uncharged": (
        np.array([
            [2, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 2], [0, 2, 0, 0, 0],
            [0, 1, 1, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1],
        ]) / 2,
        [0, 2, 0, 1, 2],
        [(0, 1), (2, 3, 4)],
        SolveTrace(additions=1, newton_steps=2, line_evals=2),
        "0x1.0000000000000p+0",
    ),
    "a pair opens a block": (
        np.array([
            [0, 0, 0, 0, 2], [0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 1, 1, 0], [0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0], [0, 2, 0, 0, 0], [1, 0, 0, 1, 0], [1, 0, 1, 0, 0], [2, 0, 0, 0, 0],
        ]) / 2,
        [-1, -3, 0, 1, 2],
        [(0, 1), (2, 3, 4)],
        SolveTrace(additions=2, newton_steps=12, line_evals=12, pair_additions=1),
        "0x1.0000000000000p+0",
    ),
    "Newton step zeroes a weight": (
        np.array([[4, 6, 2, 4], [7, 2, 3, 4], [5, 3, 4, 4], [1, 6, 5, 4], [3, 6, 3, 4]]) / 16,
        np.array([-28, -18, 0, -28]) / 16,
        [(0, 1, 2, 3)],
        SolveTrace(additions=2, newton_steps=5, line_evals=5),
        "0x1.10690490e4e89p-1",
    ),
}


class TestSolveTrace:
    @pytest.mark.parametrize("name", list(REPRODUCERS))
    @pytest.mark.parametrize("path", ["tree", "corner set"])
    def test_reproducer_counts(self, name, path):
        tm, leaves, level, *pins = REPRODUCERS[name]
        want, alpha = pins[2:] if path == "tree" else pins[:2]
        xi, c = RandomVariable(tm.space, leaves), tm.level_partition(level)
        ms = tree_measure_set(tm)
        res = solve_mmse(tm if path == "tree" else ms, xi, c)
        assert res.converged
        assert res.trace == want
        assert res.alpha == float.fromhex(alpha)
        assert res.trace.additions == res.iterations
        assert solve_mmse(tm if path == "tree" else ms, xi, c).trace == res.trace
        oracle = brute_force_mmse(ms, xi, c)
        assert abs(res.alpha - oracle.alpha) <= 1e-9 * xi.unit**2

    @pytest.mark.parametrize("name", list(EXPLICIT_REPRODUCERS))
    def test_explicit_set_counts(self, name):
        rows, leaves, blocks, want, alpha = EXPLICIT_REPRODUCERS[name]
        space = SampleSpace.of_size(len(leaves))
        ms = MeasureSet.from_matrix(space, rows)
        xi, c = RandomVariable(space, leaves), PartitionAlgebra(space, blocks)
        res = solve_mmse(ms, xi, c)
        assert res.converged
        assert res.trace == want
        assert res.alpha == float.fromhex(alpha)
        assert abs(res.alpha - brute_force_mmse(ms, xi, c).alpha) <= 1e-9 * xi.unit**2

    def test_counts_stay_out_of_result_files(self, two_point):
        _, ms, xi, triv = two_point
        res = solve_mmse(ms, xi, triv)
        assert res.trace.additions == res.iterations and res.trace.newton_steps > 0
        assert brute_force_mmse(ms, xi, triv).trace is None
        assert not {"trace", *res.trace._fields} & set(estimator_result_dict(res))

    def test_measurable_input_does_no_work(self, two_point):
        space, ms, _, triv = two_point
        res = solve_mmse(ms, RandomVariable(space, [3.0, 3.0]), triv)
        assert res.trace == SolveTrace()


# Sets that are not proper, on which a face of the dual solve degenerates.
# Each is (rows, xi, blocks). In the first, every point the start generator
# charges has xi equal to the start estimate, so the residual that scales the
# face steps is 0. In the other two, a pair addition joins a face of one
# generator, which leaves a block uncharged, and the Newton step that the
# generator clips finds no ascent: it holds the face's whole weight, so it
# cannot leave.
DEGENERATE_FACES = {
    "start residual of 0": (
        [[0.6, 0.2, 0, 0.2], [0.6, 0, 0, 0.4]],
        [-2, 1, -4, -3],
        [(0,), (1, 2), (3,)],
    ),
    "clipped by the whole weight": (
        [[0, 5 / 11, 3 / 11, 3 / 11], [2 / 4, 0, 0, 2 / 4], [5 / 14, 0, 1 / 14, 8 / 14],
         [2 / 6, 4 / 6, 0, 0], [0, 6 / 14, 8 / 14, 0]],
        [1, 3, 2, 2],
        [(0, 3), (1, 2)],
    ),
    "clipped by the whole weight at the optimum": (
        [[0.5, 0.5, 0, 0], [0, 0.6, 0.4, 0], [0, 0.75, 0.25, 0], [0.5, 0, 0, 0.5]],
        [-1, 1, 2, 0],
        [(0, 1), (2, 3)],
    ),
}


@pytest.mark.parametrize("name", list(DEGENERATE_FACES))
def test_degenerate_face_ends_without_a_warning(name):
    # every warning is an error here; the solve either converges to the
    # oracle's alpha or reports that it stopped, with a finite mixture
    rows, leaves, blocks = DEGENERATE_FACES[name]
    space = SampleSpace.of_size(len(leaves))
    ms = MeasureSet.from_matrix(space, rows)
    xi, c = RandomVariable(space, leaves), PartitionAlgebra(space, blocks)
    res = solve_mmse(ms, xi, c)
    assert np.isfinite(res.alpha) and np.isfinite(res.p_hat.lam).all()
    oracle = brute_force_mmse(ms, xi, c).alpha
    if res.converged:
        assert abs(res.alpha - oracle) <= 1e-9 * xi.unit**2
        assert verify_saddle(ms, xi, c, res).passed
    else:
        assert res.saddle_gap > 1e-8 * (1.0 + res.alpha)
    assert res.converged or name != "start residual of 0"


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_caratheodory_step_goes_uphill(monkeypatch, order):
    # three generators on one block, more than one above the charged blocks:
    # the step moves along the one direction v (up to sign) with v @ u = 0 and
    # sum(v) = 0, v ~ (1, 1, -2) here, which keeps eta = 0 and so r = (3/4,
    # 3/4, 1/4); uphill in phi = w @ r it empties g3 and ends at (1/2, 1/2),
    # where downhill would end at g3 alone. No Newton step runs first
    monkeypatch.setattr(robustmse.estimator, "_FACE_STEPS", 0)
    space = SampleSpace.of_size(3)
    rows = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5], [0.125, 0.75, 0.125]])
    ms = MeasureSet.from_matrix(space, rows[list(order)])
    xi = RandomVariable(space, [-1.0, 0.0, 1.0])
    pool = robustmse.estimator._Pool(ms, xi, PartitionAlgebra.trivial(space))
    s = np.array([pool.add(k) for k in range(3)])
    w = np.array([0.25, 0.25, 0.5])[list(order)]
    got, lam = robustmse.estimator._face_ascent(pool, s, w, 1.0)
    assert sorted(order[k] for k in got.tolist()) == [0, 1]
    assert lam == pytest.approx([0.5, 0.5], abs=1e-15)


class TestRefusedInputs:
    def test_block_no_generator_charges_is_named(self):
        space = SampleSpace.of_size(4)
        ms = MeasureSet.from_matrix(space, [[0.5, 0.0, 0.5, 0.0], [0.25, 0.0, 0.75, 0.0]])
        xi = RandomVariable(space, [1.0, 2.0, 3.0, 4.0])
        c = PartitionAlgebra(space, [(0, 2), (1, 3)])
        for solver in (solve_mmse, brute_force_mmse):
            with pytest.raises(ZeroMassBlockError) as err:
                solver(ms, xi, c)
            assert err.value.block == (1, 3)
            assert "(1, 3)" in str(err.value)

    def test_estimators_must_be_measurable(self, two_point):
        space, ms, xi, triv = two_point
        flat, bumpy = triv.broadcast([5.0]), RandomVariable(space, [4.0, 6.0])
        with pytest.raises(ArgumentError, match="eta_hat must be measurable"):
            optimality_ineq(ms, xi, triv, bumpy, [flat])
        with pytest.raises(ArgumentError, match=r"eta_list\[1\] is not measurable"):
            optimality_ineq(ms, xi, triv, flat, [flat, bumpy])
        with pytest.raises(ArgumentError, match="eta must be measurable"):
            penalized_value(ms, xi, triv, bumpy)

    # the 4-point set of tests/test_cli.py: at xi * 1e-160, R^2 (about 1e-320)
    # is subnormal, and unguarded solve_mmse gave alpha / s^2 = 0.53161 for
    # 0.53125 and brute_force_mmse 0.53112, both claiming convergence
    @staticmethod
    def four_point(s):
        space = SampleSpace.of_size(4)
        ms = MeasureSet.from_matrix(space, [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        c = PartitionAlgebra(space, [(0, 1), (2, 3)])
        return ms, RandomVariable(space, [s, -s, 0.0, 0.5 * s]), c

    def test_squares_below_the_normal_range(self):
        ms, xi, c = self.four_point(1e-160)
        for solver in (solve_mmse, brute_force_mmse):
            with pytest.raises(GuardRefusalError, match="below the normal range"):
                solver(ms, xi, c)

    def test_normal_squares_still_solve(self):
        ms, xi, c = self.four_point(1e-150)
        for solver in (solve_mmse, brute_force_mmse):
            res = solver(ms, xi, c)
            assert res.converged
            assert res.alpha == pytest.approx(0.53125e-300, rel=1e-9)

    def test_measurable_tiny_xi_answers(self):
        # a measurable xi needs no residual: it is its own estimator
        ms, _, c = self.four_point(1e-160)
        xi = c.broadcast([1e-160, -5e-161])
        res = solve_mmse(ms, xi, c)
        assert res.alpha == 0.0
        assert verify_saddle(ms, xi, c, res).passed
        assert ns_condition(ms, xi, c, res.eta_hat).holds

    CHECKS = ("verify_saddle", "ns_condition", "optimality_ineq", "penalized_value")

    def checks(self, s):
        """The four checks that square residuals, on the set at xi * s, each
        at the solver's result at xi scaled by s; penalized_value and
        optimality_ineq at the upper envelope."""
        ms, xi, c = self.four_point(1.0)
        res = solve_mmse(ms, xi, c)
        ms, xi, c = self.four_point(s)
        res = res._replace(eta_hat=res.eta_hat * s, alpha=res.alpha * s * s)
        upper = ess_sup_conditional(ms, xi, c)
        return {
            "verify_saddle": lambda: verify_saddle(ms, xi, c, res),
            "ns_condition": lambda: ns_condition(ms, xi, c, res.eta_hat, witness=res.p_hat.lam),
            "optimality_ineq": lambda: optimality_ineq(ms, xi, c, res.eta_hat, [upper]),
            "penalized_value": lambda: penalized_value(ms, xi, c, upper),
        }

    @pytest.mark.parametrize("name", CHECKS)
    def test_checks_refuse_squares_below_the_normal_range(self, name):
        # unguarded, ns_condition answered holds=False there, with a lower
        # bound of 0.531126 s^2 against rho_sq 0.531621 s^2 (true: 0.53125 s^2),
        # and optimality_ineq a margin of -5e-324 that is not ok
        with pytest.raises(GuardRefusalError, match="below the normal range"):
            self.checks(1e-160)[name]()

    def test_checks_answer_in_the_normal_range(self):
        s = 1e-150
        at_one, at_s = self.checks(1.0), self.checks(s)
        assert at_s["verify_saddle"]().passed
        ns = at_s["ns_condition"]()
        assert ns.holds and ns.lower_bound == pytest.approx(0.53125 * s * s, rel=1e-9)
        assert ns.rho_sq == pytest.approx(at_one["ns_condition"]().rho_sq * s * s, rel=1e-12)
        assert at_s["optimality_ineq"]().all_ok
        assert at_s["penalized_value"]() == pytest.approx(
            at_one["penalized_value"]() * s * s, rel=1e-12
        )
