"""The estimator does not depend on how a problem is written down.

Each draw of random_instance is solved, then solved again after one change
that leaves the problem the same: the generators permuted, the points
permuted with the partition relabelled, an interior mixture of the
generators appended as one more, or one point split into two halves with the
same xi. The re-solve must converge, with alpha within 1e-12 * R^2 and
eta_hat, mapped back to the original points, within 1e-12 * R.

The shift xi + c is the same problem with eta_hat moved by c and alpha kept,
but xi + c is rounded: test_shift derives its slack below.
"""

import math

import numpy as np
import pytest

from robustmse import MeasureSet, PartitionAlgebra, RandomVariable, SampleSpace, solve_mmse
from robustmse.randgen import random_instance, rng_from_seed

DRAWS = 400


def permute_generators(rng, ms, xi, c):
    rows = ms.weights_matrix[rng.permutation(len(ms.weights_matrix))]
    return MeasureSet.from_matrix(ms.space, rows), xi, c, lambda eta: eta


def permute_points(rng, ms, xi, c):
    # new point j is old point perm[j]
    perm = rng.permutation(ms.space.n)
    new_of_old = np.argsort(perm)
    blocks = [tuple(sorted(int(new_of_old[i]) for i in b)) for b in c.blocks]
    return (
        MeasureSet.from_matrix(ms.space, ms.weights_matrix[:, perm]),
        RandomVariable(ms.space, xi.values[perm]),
        PartitionAlgebra(ms.space, blocks),
        lambda eta: eta[new_of_old],
    )


def append_mixture(rng, ms, xi, c):
    lam = rng.integers(1, 5, size=len(ms.weights_matrix)).astype(float)
    mixture = lam / lam.sum() @ ms.weights_matrix
    rows = np.vstack([ms.weights_matrix, mixture / mixture.sum()])
    return MeasureSet.from_matrix(ms.space, rows), xi, c, lambda eta: eta


def split_point(rng, ms, xi, c):
    # point i keeps half its mass, the new last point n takes the other half
    i, n = int(rng.integers(ms.space.n)), ms.space.n
    space = SampleSpace.of_size(n + 1)
    half = ms.weights_matrix[:, i] / 2.0
    rows = np.hstack([ms.weights_matrix, half[:, None]])
    rows[:, i] = half
    blocks = [b + (n,) if i in b else b for b in c.blocks]
    return (
        MeasureSet.from_matrix(space, rows),
        RandomVariable(space, np.append(xi.values, xi.values[i])),
        PartitionAlgebra(space, blocks),
        lambda eta: eta[:n],
    )


CHANGES = [permute_generators, permute_points, append_mixture, split_point]


@pytest.fixture(scope="module")
def draws():
    """DRAWS consecutive instances with their solutions."""
    rng = rng_from_seed(4242)
    out = []
    for _ in range(DRAWS):
        ms, xi, c = random_instance(rng, 8, 4, 8)
        out.append((ms, xi, c, solve_mmse(ms, xi, c)))
    return out


@pytest.mark.parametrize("change", CHANGES, ids=lambda f: f.__name__)
def test_solution_unchanged(draws, change):
    rng = rng_from_seed(4243)
    for ms, xi, c, res in draws:
        assert res.converged
        ms2, xi2, c2, back = change(rng, ms, xi, c)
        again = solve_mmse(ms2, xi2, c2)
        R = xi.unit
        assert xi2.unit == R
        assert again.converged
        assert abs(again.alpha - res.alpha) <= 1e-12 * R * R
        assert np.max(np.abs(back(again.eta_hat.values) - res.eta_hat.values)) <= 1e-12 * R


@pytest.mark.parametrize("offset", [1.0, 1e3, 1e6], ids=lambda k: f"c={k:g}R")
def test_shift(draws, offset):
    """xi + c with c = offset * R: eta_hat(xi + c) - c = eta_hat(xi) and the
    same alpha, up to the rounding that the offset brings.

    Rounding xi + c moves each entry by up to u = ulp(|c| + max|xi|) / 2.
    The solver's conditional means sum at most n products of magnitude up to
    |c| + max|xi|, with relative rounding below 2^-53 each, and one quotient:
    at most (n + 1) * 2u more, and subtracting c back one u more. So eta_hat
    moves by at most e = (2n + 4) u beyond the solver's own 1e-12 * R. Each
    residual xi - eta_hat, at most 2R in size, then moves by at most e, and
    alpha, a largest mean of squared residuals, by at most 4 R e + e^2
    beyond 1e-12 * R^2.
    """
    for ms, xi, c, res in draws:
        R, n = xi.unit, ms.space.n
        shift = offset * R
        again = solve_mmse(ms, RandomVariable(ms.space, xi.values + shift), c)
        assert again.converged
        u = math.ulp(abs(shift) + float(np.max(np.abs(xi.values)))) / 2.0
        e = (2 * n + 4) * u
        assert abs(again.alpha - res.alpha) <= 1e-12 * R * R + 4.0 * R * e + e * e
        assert np.max(np.abs(again.eta_hat.values - shift - res.eta_hat.values)) <= 1e-12 * R + e
