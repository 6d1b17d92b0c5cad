"""No verdict moves with the scale of xi.

Every value comparison of the characterizations is made in units of
RandomVariable.unit (R, half the range of xi), or of R^2 for squared errors
and products, so scaling xi by s scales each value by s or s^2 and leaves
each verdict where it was.
"""

import math
from types import MappingProxyType

import numpy as np
import pytest

from robustmse import (
    MeasureSet,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    TreeModel,
    axiom_suite,
    minimax_gap,
    optimality_ineq,
    penalized_value,
    recursivity_check,
    rho,
    solve_mmse,
    tree_measure_set,
)
from robustmse.cli import cmd_rho
from robustmse.instances import Instance
from robustmse.randgen import (
    random_instance,
    random_measure_set,
    random_two_level_filtration,
    random_variable,
    rng_from_seed,
)
from robustmse.sublinear import AxiomViolation

SCALES = (1e-12, 1e-9, 1e-6, 1e6, 1e9)


class TestUnit:
    def test_half_range_then_bound_then_one(self):
        space = SampleSpace.of_size(3)
        assert RandomVariable(space, [2.0, 8.0, 5.0]).unit == 3.0
        assert RandomVariable(space, [-4.0, -4.0, -4.0]).unit == 4.0
        assert RandomVariable(space, [0.0, 0.0, 0.0]).unit == 1.0

    @pytest.mark.parametrize("s", SCALES)
    def test_scales_with_xi_and_ignores_a_shift(self, s):
        x = RandomVariable(SampleSpace.of_size(4), [-1.5, 0.25, 2.0, 0.5])
        assert (x * s).unit == pytest.approx(1.75 * s, rel=1e-15)
        assert (x + 1e6).unit == 1.75


def tree_sets():
    """Trees with their explicit corner sets; the per-node tree has ties."""
    uneven = TreeModel(3, [0.25, 0.375, 0.25, 0.5, 0.25, 0.125, 0.375],
                       [0.75, 0.5, 0.625, 0.5, 0.75, 0.375, 0.5])
    for tm in (TreeModel.drift_bound(2), TreeModel.drift_bound(3), uneven):
        yield tm, tree_measure_set(tm)


def command_rho(ms, x):
    """The rho command's report (value, argmax_generator, ties) on a
    MeasureSet, with the trivial partition, or on a TreeModel."""
    if isinstance(ms, TreeModel):
        inst = Instance(x.space, None, x, None, None, ms, MappingProxyType({}))
    else:
        inst = Instance(x.space, ms, x, PartitionAlgebra.trivial(x.space), None, None, MappingProxyType({}))
    out = cmd_rho(inst)[0]["rho"]
    return out["value"], out["argmax_generator"], tuple(out["ties"])


def command_ties(ms, x):
    return command_rho(ms, x)[2]


class TestTies:
    @pytest.mark.parametrize("s", SCALES)
    def test_explicit_sets(self, s):
        rng = rng_from_seed(61)
        tied = 0
        for _ in range(100):
            ms, xi, _ = random_instance(rng)
            want = command_ties(ms, xi)
            tied += len(want) > 1
            assert command_ties(ms, xi * s) == want
        assert tied > 0

    @pytest.mark.parametrize("s", SCALES)
    def test_trees_agree_with_their_corner_sets(self, s):
        rng = rng_from_seed(62)
        for tm, ms in tree_sets():
            samples = [np.arange(tm.num_leaves, dtype=float), -np.arange(tm.num_leaves) % 3.0]
            samples += [random_variable(rng, ms.space).values for _ in range(20)]
            for v in samples:
                x = RandomVariable(ms.space, v)
                want = command_ties(ms, x)
                assert command_ties(ms, x * s) == want
                assert command_ties(tm, x * s) == want

    @pytest.mark.parametrize("s", SCALES)
    def test_reported_reproducer(self, s):
        # at s = 1e-9 an absolute slack listed (0, 1, 2, 3) on the tree and
        # (0, 1, 2, 3, 4) on its corner set
        tm = TreeModel.drift_bound(2)
        x = RandomVariable(tm.space, [0.0, 1.0, 2.0, 3.0]) * s
        assert command_ties(tm, x) == command_ties(tree_measure_set(tm), x) == (0,)


def two_level_sets(count=200):
    rng = rng_from_seed(7)
    for _ in range(count):
        space = SampleSpace.of_size(int(rng.integers(4, 8)))
        f = random_two_level_filtration(rng, space)
        ms = random_measure_set(rng, space, 3)
        yield ms, f, random_variable(rng, space)


def recursivity_flags(ms, f, xi):
    return [
        recursivity_check(ms, f, xi, sigma, tau).equal
        for sigma in range(len(f.levels))
        for tau in range(sigma, len(f.levels))
    ]


def test_recursivity_grid_does_not_move():
    corpus = list(two_level_sets())
    flags = [recursivity_flags(ms, f, xi) for ms, f, xi in corpus]
    assert any(not all(row) for row in flags)
    for s in SCALES:
        assert [recursivity_flags(ms, f, xi * s) for ms, f, xi in corpus] == flags, s


def past_the_largest_float(xi):
    """xi * 2^k with max|xi| * 2^k in [2^1023, 2^1024), or None where the
    scaled range max - min stays below 2^1024 (the largest float is just below)."""
    k = 1024 - math.frexp(xi.bound)[1]
    big = RandomVariable(xi.space, np.ldexp(xi.values, k))
    return big if math.isinf(float(big.values.max()) - float(big.values.min())) else None


def test_a_range_past_the_largest_float_moves_no_verdict():
    # here max - min overflows to inf; with R = inf every generator would tie
    # for rho and every recursivity pair would read equal
    space = SampleSpace.of_size(2)
    pair = MeasureSet.from_matrix(space, [[0.25, 0.75], [0.75, 0.25]])
    assert command_rho(pair, RandomVariable(space, [1e308, -1e308]))[1:] == (1, (1,))
    scaled = 0
    for ms, f, xi in two_level_sets():
        big = past_the_largest_float(xi)
        if big is None:
            continue
        scaled += 1
        assert math.isfinite(big.unit)
        assert command_rho(ms, big)[1:] == command_rho(ms, xi)[1:]
        assert recursivity_flags(ms, f, big) == recursivity_flags(ms, f, xi)
    assert scaled >= 100


@pytest.fixture
def example(two_point):
    _, ms, xi, triv = two_point
    return ms, xi, triv


@pytest.mark.parametrize("s", SCALES)
class TestReadmeExample:
    def test_penalized_value(self, example, s):
        ms, xi, triv = example
        assert penalized_value(ms, xi * s, triv, triv.broadcast([6.5 * s])) == pytest.approx(
            15.75 * s * s, rel=1e-9
        )
        assert penalized_value(ms, xi * s, triv, triv.broadcast([5.0 * s])) == math.inf

    def test_minimax_gap(self, example, s):
        ms, xi, triv = example
        rep = minimax_gap(ms, xi * s, triv)
        assert rep.gap == pytest.approx(6.75 * s * s, rel=1e-9)
        assert rep.ess_sup_is_mmse is False

    def test_optimality_ineq(self, example, s):
        ms, xi, triv = example
        rep = optimality_ineq(ms, xi * s, triv, triv.broadcast([6.5 * s]), [triv.broadcast([5.0 * s])])
        assert rep.entries[0].margin == pytest.approx(-4.5 * s * s, rel=1e-9)
        assert rep.entries[0].ok is False

    def test_single_generator_gap_closes(self, example, s):
        ms, xi, triv = example
        rep = minimax_gap(MeasureSet([ms.generators[0]]), xi * s, triv)
        assert rep.ess_sup_is_mmse is True


@pytest.mark.parametrize("s", SCALES)
class TestAxioms:
    def test_no_violation(self, two_point, s):
        _, ms, _, _ = two_point
        rng = rng_from_seed(13)
        report = axiom_suite(ms, [random_variable(rng, ms.space) * s for _ in range(15)])
        assert report.ok

    def test_broken_subadditivity_is_caught(self, two_point, break_rho, s):
        space, ms, xi, _ = two_point
        # xi and (1, 3) take their max at the same generator: subadditivity is tight
        x, y = xi * s, RandomVariable(space, [1.0, 3.0]) * s
        total = x + y
        break_rho(total, 1e-6 * total.unit)
        report = axiom_suite(ms, [x, y], scalars=())
        assert [v.axiom for v in report.violations] == ["subadditivity"]
        assert report.violations[0] == AxiomViolation(
            "subadditivity", "samples (0,1)", rho(ms, total) + 1e-6 * total.unit,
            rho(ms, x) + rho(ms, y),
        )


def dual_solves():
    """Explicit draws, then trees of depth 2 and 3 at every level below the
    leaves, each solved as a tree and as its corner set."""
    rng = rng_from_seed(2222)
    for _ in range(70):
        yield random_instance(rng, max_points=12, max_blocks=5, max_generators=10)
    for depth in (2, 3):
        lo = rng.integers(2, 8, size=2**depth - 1)
        hi = lo + rng.integers(1, 9, size=len(lo))
        for tm in (TreeModel.drift_bound(depth), TreeModel(depth, lo / 16, hi / 16)):
            for level in range(depth):
                xi = RandomVariable(tm.space, rng.integers(-32, 33, size=2**depth) / 16)
                yield tm, xi, tm.level_partition(level)
                yield tree_measure_set(tm), xi, tm.level_partition(level)


@pytest.mark.parametrize("k", [-20, 20])
def test_dual_solve_is_exact_under_a_power_of_two(k):
    # every step of the dual solve is unit-free, so scaling xi by 2^k scales
    # each rounding with it: the same iterates, bit for bit
    s = 2.0**k
    for ms, xi, c in dual_solves():
        base, res = solve_mmse(ms, xi, c), solve_mmse(ms, xi * s, c)
        assert np.array_equal(res.eta_hat.values, base.eta_hat.values * s)
        assert res.alpha == base.alpha * s * s
        assert res.saddle_gap == base.saddle_gap * s * s
        assert np.array_equal(res.p_hat.lam, base.p_hat.lam)
        assert (res.iterations, res.converged) == (base.iterations, base.converged)
