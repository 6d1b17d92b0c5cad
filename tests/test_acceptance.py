"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with `pytest -s`).

The seeds below are frozen; all randomness flows through PCG64, so the
suite replays identically everywhere.
"""

import json
import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from robustmse import (
    EstimatorResult,
    Filtration,
    Measure,
    MeasureSet,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    SolverConfig,
    TreeModel,
    brute_force_mmse,
    compare_gexp_mmse,
    conditional_expectation,
    ess_inf_conditional,
    ess_sup_conditional,
    g_expectation,
    holder_bound,
    is_stable,
    kernel_member,
    minimax_gap,
    mix,
    ns_condition,
    penalized_value,
    recursivity_check,
    replay_counterexample,
    rho,
    solve_mmse,
    tree_measure_set,
    verify_saddle,
)
from robustmse.cli import main
from robustmse.instances import parse_instance
from robustmse.randgen import (
    rng_from_seed,
    random_instance,
    random_positive_measure,
    random_product_instance,
    random_variable,
)
from robustmse.stability import DEFAULT_TCSEARCH_SEED

GRID_STEP = 1e-3
SEED_ORACLE = 6021
SEED_UNIQUE = 6041
SEED_STABLE_TREES = 6051
SEED_PROPERTIES = 6071
SEED_PRODUCT = 6072
SEED_SINGLE = 6082
SEED_RECURSIVITY = 6091
SEED_HOLDER = 6121


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:02d} FAIL: {description}")
        raise
    print(f"CRITERION {number:02d} PASS: {description}")


def example_instance():
    space = SampleSpace(("w1", "w2"))
    ms = MeasureSet([Measure(space, [0.25, 0.75]), Measure(space, [0.75, 0.25])])
    xi = RandomVariable(space, [2.0, 8.0])
    return space, ms, xi, PartitionAlgebra.trivial(space)


@lru_cache(maxsize=1)
def oracle_instances():
    """The 200 instances shared by criteria 2, 3, 5, and 6."""
    rng = rng_from_seed(SEED_ORACLE)
    out = []
    for _ in range(200):
        out.append(random_instance(rng, max_points=6, max_blocks=3, max_generators=5))
    return out


@lru_cache(maxsize=1)
def oracle_solutions():
    return [
        (ms, xi, c, solve_mmse(ms, xi, c), brute_force_mmse(ms, xi, c))
        for ms, xi, c in oracle_instances()
    ]


def test_criterion_01_example_reproduction():
    with criterion(1, "two-point example: rho 6.5 exact, eta 5, mixture (1/2,1/2), alpha 9"):
        start = time.perf_counter()
        _, ms, xi, triv = example_instance()
        assert rho(ms, xi).value == 6.5
        res = solve_mmse(ms, xi, triv)
        assert res.converged
        assert np.max(np.abs(res.eta_hat.values - 5.0)) <= 1e-6
        assert np.max(np.abs(mix(ms, res.p_hat).weights - 0.5)) <= 1e-6
        assert abs(res.alpha - 9.0) <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_02_oracle_equivalence():
    with criterion(2, "200 seeded instances: ellipsoid oracle agrees with the saddle solver"):
        start = time.perf_counter()
        for ms, xi, c, solved, brute in oracle_solutions():
            assert solved.converged
            assert abs(solved.alpha - brute.alpha) <= 1e-4
            assert np.max(np.abs(solved.eta_hat.values - brute.eta_hat.values)) <= 2 * GRID_STEP
        assert time.perf_counter() - start < 60.0


def test_criterion_03_saddle_certificates():
    with criterion(3, "certificates pass at solutions; +0.1 block perturbation breaks the min side"):
        cfg = SolverConfig()
        min_side_failures = 0
        total = 0
        for ms, xi, c, solved, _ in oracle_solutions():
            cert = verify_saddle(ms, xi, c, solved)
            assert cert.passed
            pert_vals = solved.eta_hat.values.copy()
            pert_vals[list(c.blocks[0])] += 0.1
            perturbed = EstimatorResult(
                eta_hat=RandomVariable(xi.space, pert_vals),
                p_hat=solved.p_hat,
                alpha=solved.alpha,
                saddle_gap=solved.saddle_gap,
                iterations=solved.iterations,
                solver=solved.solver,
            )
            pert_cert = verify_saddle(ms, xi, c, perturbed)
            tol = cfg.tol * (1.0 + abs(solved.alpha))
            total += 1
            if pert_cert.value_at_saddle > pert_cert.min_over_eta + tol:
                min_side_failures += 1
        assert min_side_failures >= 0.95 * total


def test_criterion_04_uniqueness_under_restarts():
    with criterion(4, "10 dual restarts agree on eta_hat within 1e-5 on 50 proper instances"):
        rng = rng_from_seed(SEED_UNIQUE)
        for _ in range(50):
            ms, xi, c = random_instance(rng, max_points=6, max_blocks=3, max_generators=5)
            inits = [None]
            inits.extend(np.eye(len(ms))[k] for k in range(min(len(ms), 4)))
            while len(inits) < 10:
                inits.append(rng.dirichlet(np.ones(len(ms))))
            results = [solve_mmse(ms, xi, c, init_weights=w) for w in inits]
            base = results[0]
            for other in results[1:]:
                assert np.max(np.abs(other.eta_hat.values - base.eta_hat.values)) <= 1e-5
                assert abs(other.alpha - base.alpha) <= 1e-8


def test_criterion_05_kernel_characterization():
    with criterion(5, "kernel membership: solutions and conditionals in, envelope+0.5 out, stable bands in"):
        for ms, xi, c, solved, _ in oracle_solutions():
            assert kernel_member(ms, xi, c, solved.eta_hat)
            for g in ms.generators:
                assert kernel_member(ms, xi, c, conditional_expectation(g, xi, c))
            above = ess_sup_conditional(ms, xi, c) + 0.5
            assert not kernel_member(ms, xi, c, above)
        # stable rectangular sets: points strictly inside the band are members
        rng = rng_from_seed(SEED_STABLE_TREES)
        for _ in range(10):
            lo = int(rng.integers(1, 8)) / 16
            hi = lo + int(rng.integers(1, 8)) / 16
            tm = TreeModel(2, lo, min(hi, 15 / 16), 0.25)
            ms = tree_measure_set(tm)
            f = Filtration([tm.level_partition(d) for d in range(3)])
            assert is_stable(ms, f).stable
            part = tm.level_partition(1)
            xi = random_variable(rng, ms.space)
            lower = ess_inf_conditional(ms, xi, part)
            upper = ess_sup_conditional(ms, xi, part)
            for t in (0.25, 0.5, 0.75):
                inside = lower * (1 - t) + upper * t
                assert kernel_member(ms, xi, part, inside)


def test_criterion_06_ns_condition():
    with criterion(6, "product equation holds at eta_hat, fails at eta_hat + 0.25"):
        for ms, xi, c, solved, _ in oracle_solutions():
            at_solution = ns_condition(ms, xi, c, solved.eta_hat, tol=1e-6)
            assert at_solution.holds
            shifted = ns_condition(ms, xi, c, solved.eta_hat + 0.25, tol=1e-6)
            assert not shifted.holds


def test_criterion_07_basic_properties():
    with criterion(7, "bounds, scaling, shift, and independence properties at 1e-8"):
        rng = rng_from_seed(SEED_PROPERTIES)
        for _ in range(100):
            ms, xi, c = random_instance(rng, max_points=6, max_blocks=3, max_generators=5)
            res = solve_mmse(ms, xi, c)
            lo, hi = float(np.min(xi.values)), float(np.max(xi.values))
            assert np.all(res.eta_hat.values >= lo - 1e-8)
            assert np.all(res.eta_hat.values <= hi + 1e-8)
            for lam in (2.0, -1.5):
                scaled = solve_mmse(ms, xi * lam, c)
                assert np.max(np.abs(scaled.eta_hat.values - lam * res.eta_hat.values)) <= 1e-8
            shift = c.broadcast(rng.integers(-16, 17, size=c.num_blocks) / 16)
            moved = solve_mmse(ms, xi + shift, c)
            assert np.max(np.abs(moved.eta_hat.values - (res.eta_hat.values + shift.values))) <= 1e-8
        rng = rng_from_seed(SEED_PRODUCT)
        for _ in range(100):
            ms, xi, c = random_product_instance(rng)
            res = solve_mmse(ms, xi, c)
            assert float(np.max(res.eta_hat.values) - np.min(res.eta_hat.values)) <= 1e-8


def test_criterion_08_penalized_problem():
    with criterion(8, "penalized values 15.75/inf, gap 6.75 on the example; zero gap for single generators"):
        _, ms, xi, triv = example_instance()
        assert abs(penalized_value(ms, xi, triv, triv.broadcast([6.5])) - 15.75) <= 1e-8
        assert penalized_value(ms, xi, triv, triv.broadcast([5.0])) == math.inf
        rep = minimax_gap(ms, xi, triv)
        assert abs(rep.gap - 6.75) <= 1e-6
        assert rep.ess_sup_is_mmse is False
        rng = rng_from_seed(SEED_SINGLE)
        for _ in range(50):
            space = SampleSpace.of_size(int(rng.integers(2, 7)))
            single = MeasureSet([random_positive_measure(rng, space)])
            xi_s = random_variable(rng, space)
            blocks = int(rng.integers(1, min(3, space.n) + 1))
            from robustmse.randgen import random_partition

            c = random_partition(rng, space, blocks)
            rep = minimax_gap(single, xi_s, c)
            assert abs(rep.gap) <= 1e-8
            assert rep.ess_sup_is_mmse is True


def test_criterion_09_stability_recursivity():
    with criterion(9, "rectangular tree sets stable+recursive; diagonal witness fails both"):
        tm = TreeModel.drift_bound(2, 0.25)
        ms = tree_measure_set(tm)
        f = Filtration([tm.level_partition(d) for d in range(3)])
        assert is_stable(ms, f).stable
        rng = rng_from_seed(SEED_RECURSIVITY)
        for _ in range(100):
            xi = random_variable(rng, ms.space)
            for sigma in range(3):
                for tau in range(sigma, 3):
                    rep = recursivity_check(ms, f, xi, sigma, tau)
                    assert rep.equal
        space = SampleSpace(("uu", "ud", "du", "dd"))
        witness_set = MeasureSet(
            [
                Measure(space, [8 / 16, 4 / 16, 2 / 16, 2 / 16]),
                Measure(space, [2 / 16, 2 / 16, 4 / 16, 8 / 16]),
            ]
        )
        fw = Filtration(
            [
                PartitionAlgebra.trivial(space),
                PartitionAlgebra(space, [(0, 1), (2, 3)]),
                PartitionAlgebra.discrete(space),
            ]
        )
        stab = is_stable(witness_set, fw)
        assert not stab.stable
        assert stab.witness_residual > 1e-9
        xi_w = RandomVariable(space, [20 / 16, -27 / 16, -21 / 16, -17 / 16])
        rec = recursivity_check(witness_set, fw, xi_w, 0, 1)
        assert not rec.equal
        assert rec.max_abs_gap > 1e-3


def test_criterion_10_time_consistency_failure(tmp_path):
    with criterion(10, "default-seed search finds a replayable two-stage mismatch > 1e-3"):
        out = tmp_path / "tc.json"
        code = main(
            ["tcsearch", "--seed", str(DEFAULT_TCSEARCH_SEED), "--trials", "1000", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())["result"]
        assert payload["found"] is True
        assert payload["trial_index"] < 1000
        assert payload["gap"] > 1e-3
        inst = parse_instance(payload["counterexample"])
        _, _, gap = replay_counterexample(inst.measure_set, inst.xi, inst.filtration)
        assert abs(gap - payload["gap"]) <= 1e-9


def test_criterion_11_gexp_contrast():
    with criterion(11, "tree recursion vs estimator: 6.5-vs-5 contrast, indicator case, representation"):
        rep1 = compare_gexp_mmse(TreeModel.drift_bound(1), [2.0, 8.0], 0)
        assert abs(rep1.sup_diff - 1.5) <= 1e-6
        tm2 = TreeModel.drift_bound(2)
        indicator = [1.0, 0.0, 0.0, 0.0]
        rep2 = compare_gexp_mmse(tm2, indicator, 1)
        assert rep2.sup_diff > 1e-9
        ms2 = tree_measure_set(tm2)
        xi2 = RandomVariable(ms2.space, indicator)
        brute = brute_force_mmse(ms2, xi2, tm2.level_partition(1))
        assert np.max(np.abs(brute.eta_hat.values - rep2.mmse.values)) <= 2 * GRID_STEP
        assert float(np.max(np.abs(rep2.gexp_cond.values - brute.eta_hat.values))) > 1e-6
        rng = rng_from_seed(SEED_STABLE_TREES + 1)
        for depth in (1, 2, 3, 4):
            tm = TreeModel.drift_bound(depth)
            ms = tree_measure_set(tm)
            for _ in range(3):
                xi = random_variable(rng, ms.space)
                root = g_expectation(tm, xi.values).root_value
                assert abs(root - rho(ms, xi).value) <= 1e-10


def test_criterion_12_holder_inequality():
    with criterion(12, "conjugate-exponent bound on 200 seeded pairs; equality on the symmetric case"):
        rng = rng_from_seed(SEED_HOLDER)
        for _ in range(200):
            ms, x1, _ = random_instance(rng, max_points=6, max_blocks=3, max_generators=5)
            x2 = random_variable(rng, x1.space)
            for p, q in ((2.0, 2.0), (3.0, 1.5)):
                lhs, rhs = holder_bound(ms, x1, x2, p, q)
                assert lhs <= rhs + 1e-10
        _, ms, xi, _ = example_instance()
        centered = xi - 5.0
        lhs, rhs = holder_bound(ms, centered, centered, 2.0, 2.0)
        assert abs(lhs - rhs) <= 1e-10
