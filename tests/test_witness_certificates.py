"""The certificates of `solve` read the witness's rows and the set's maxima.

Given the solver's P_hat as witness, verify_saddle, kernel_member and
ns_condition read the rows of the generators P_hat charges through
`rows`, and their maxima through `support`; only their LP
fallbacks read every row. Here they are checked against a reference that
reads the whole weight matrix, written below as the certificates were
stated before: rho_sq within the rounding of a K-row maximum, the active
count and all three verdicts exactly, on the acceptance sets, on tree corner
sets at every level, and at xi + 1e4. A set that answers only the queries
(SetQueries) shows which rows each certificate asks for, and how many
products with the set it forms. `certify`, the one pass that `solve` runs,
gives the three certificates' bits, reads those rows once and forms three
products."""

import math
from types import MappingProxyType

import numpy as np
import pytest

from robustmse import (
    MixtureWeights,
    RandomVariable,
    TreeModel,
    kernel_member,
    ns_condition,
    rho,
    solve_mmse,
    tree_measure_set,
    verify_saddle,
)
from robustmse.cli import cmd_solve
from robustmse.estimator import NS_TOL, SADDLE_TOL
from robustmse.estimator import certify as certify_in_one_pass
from robustmse.instances import Instance
from robustmse.randgen import random_instance, rng_from_seed
from robustmse.simplexlp import HULL_TOL, hull_membership, hull_witness
from robustmse.spaces import is_measurable

EPS = np.finfo(float).eps


def reference(ms, xi, c, res):
    """(rho_sq, active, saddle verdict, kernel verdict, NS verdict) from the
    whole weight matrix W, in the units of xi, with P_hat's weights lam."""
    W, x, lam = ms.weights_matrix, xi.values, res.p_hat.lam
    d = x - res.eta_hat.values
    sq = d * d
    M = xi.bound or 1.0
    # saddle: max over the generators, and the inner minimum under P_hat
    p = lam @ W
    p = p / p.sum()
    at_saddle = p @ sq
    mass, first = c.block_sums(p), c.block_sums(p * x)
    cond = np.divide(first, mass, out=np.zeros_like(first), where=mass > 0)
    inner = x if is_measurable(xi, c) else cond[c.labels]
    tol = SADDLE_TOL * (1.0 + abs(res.alpha))
    saddle = (sq @ W.T).max() <= at_saddle + tol and at_saddle <= p @ (x - inner) ** 2 + tol
    # kernel: lam's phase-1 residual on every u_k, else the hull LP on all of them
    u = c.block_sums(W * d) / M
    fits = np.abs(lam @ u).sum() + abs(lam.sum() - 1.0) <= HULL_TOL
    kernel = fits or hull_membership(u, np.zeros(c.num_blocks))[0]
    # NS: the bound mu @ a - M^2 |mu @ u|_1 at lam, else on the active generators
    r = W @ sq
    rho_sq = r.max()
    active = np.flatnonzero(r >= rho_sq - NS_TOL * M * M)
    a = W @ (d * x)

    def proves(mu, rows):
        return rho_sq - (mu @ a[rows] - M * M * np.abs(mu @ u[rows]).sum()) <= NS_TOL * M * M

    ns = fits and proves(lam, slice(None))
    if not ns:
        member, mu, _ = hull_membership(u[active], np.zeros(c.num_blocks))
        ns = member and proves(mu, active)
    return rho_sq, len(active), saddle, kernel, ns


def certify(ms, xi, c, res):
    witness = res.p_hat.lam
    cert = verify_saddle(ms, xi, c, res)
    ns = ns_condition(ms, xi, c, res.eta_hat, witness=witness)
    return ns.rho_sq, ns.active, cert.passed, kernel_member(ms, xi, c, res.eta_hat, witness), ns.holds


def acceptance_sets():
    """The 200 instances of tests/test_acceptance.py's criteria 2, 3, 5 and 6."""
    rng = rng_from_seed(6021)
    return [random_instance(rng, max_points=6, max_blocks=3, max_generators=5) for _ in range(200)]


def corner_sets():
    """Corner sets of drift-bound and per-node trees of depths 2 and 3, at
    every level partition, with dyadic leaf values."""
    rng = rng_from_seed(4103)
    out = []
    for depth in (2, 3):
        nodes = 2**depth - 1
        lo = rng.integers(1, 8, size=nodes) / 16
        trees = [TreeModel.drift_bound(depth), TreeModel(depth, lo, lo + rng.integers(1, 8, size=nodes) / 16)]
        for tm in trees:
            ms = tree_measure_set(tm)
            for level in range(depth + 1):
                x = RandomVariable(tm.space, rng.integers(-32, 33, size=tm.num_leaves) / 16)
                out.append((ms, x, tm.level_partition(level)))
    return out


CORPORA = {"acceptance": acceptance_sets, "corners": corner_sets}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_against_the_full_matrix(corpus, offset):
    verdicts = set()
    for ms, xi, c in CORPORA[corpus]():
        xi = RandomVariable(xi.space, xi.values + offset)
        res = solve_mmse(ms, xi, c)
        if not res.converged:
            continue
        got, want = certify(ms, xi, c, res), reference(ms, xi, c, res)
        # a maximum of K sums of n products, each rounded
        assert got[0] == pytest.approx(want[0], rel=0, abs=4 * len(xi.values) * EPS * want[0])
        assert got[1:] == want[1:]
        verdicts.add(got[2:])
    assert (True, True, True) in verdicts


class QueriesOnly:
    """A set that answers exactly the queries of measures.SetQueries by asking
    another set, and has no weight matrix: the template of a new kind of set.
    It records the generators each `rows` call asks for (asked) and the name
    of each query of values (products): support and envelopes."""

    def __init__(self, ms):
        self.ms, self.space, self.asked, self.products = ms, ms.space, [], []

    def num_generators(self):
        return self.ms.num_generators()

    def support(self, v, tie_tol):
        self.products.append("support")
        return self.ms.support(v, tie_tol)

    def envelopes(self, v, algebras):
        self.products.append("envelopes")
        return self.ms.envelopes(v, algebras)

    def rows(self, ks):
        self.asked.append(np.asarray(ks).tolist())
        return self.ms.rows(ks)

    def mean_row(self):
        return self.ms.mean_row()

    def is_proper(self):
        return self.ms.is_proper()

    def block_solve(self, x, c, p0):
        return self.ms.block_solve(x, c, p0)


def test_each_certificate_reads_the_witness_rows():
    checked = 0
    for ms, xi, c in acceptance_sets()[:60]:
        res = solve_mmse(ms, xi, c)
        charged = np.flatnonzero(res.p_hat.lam).tolist()
        spy = QueriesOnly(ms)
        cert = verify_saddle(spy, xi, c, res)
        assert spy.asked == [charged]
        want = verify_saddle(ms, xi, c, res)
        assert cert == want
        spy.asked.clear()
        assert kernel_member(spy, xi, c, res.eta_hat, witness=res.p_hat.lam)
        assert spy.asked == [charged]  # the witness proved it: no LP, no other row
        spy.asked.clear()
        ns = ns_condition(spy, xi, c, res.eta_hat, witness=res.p_hat.lam)
        if ns.holds and spy.asked == [charged]:
            checked += 1
        assert ns == ns_condition(ms, xi, c, res.eta_hat, witness=res.p_hat.lam)
    assert checked >= 50


def test_certify_forms_four_products_and_rho_one():
    # certify: support of the squared deviation for the saddle, of it in
    # units of 4^e with its ties (rho_sq and the active set), and of d xi and
    # -d xi (the largest a_k and minus the least); rho: one support query
    for ms, xi, c in acceptance_sets()[:20]:
        res = solve_mmse(ms, xi, c)
        spy = QueriesOnly(ms)
        certify_in_one_pass(spy, xi, c, res)
        assert spy.products == ["support"] * 4
        spy.products.clear()
        rho(spy, xi)
        assert spy.products == ["support"]


def test_a_set_of_queries_alone_solves_and_certifies_with_the_same_bits():
    for ms, xi, c in acceptance_sets()[:60]:
        spy = QueriesOnly(ms)
        got, want = solve_mmse(spy, xi, c), solve_mmse(ms, xi, c)
        assert got.eta_hat.values.tobytes() == want.eta_hat.values.tobytes()
        assert got.p_hat.lam.tobytes() == want.p_hat.lam.tobytes()
        assert bits(got[2:]) == bits(want[2:])
        cert, member, ns = certify_in_one_pass(spy, xi, c, got)
        want_cert, want_member, want_ns = certify_in_one_pass(ms, xi, c, want)
        assert (bits(cert), member, bits(ns)) == (bits(want_cert), want_member, bits(want_ns))


def test_fallbacks_read_every_row():
    # without a witness the kernel's LP runs on every generator's row, and
    # the NS hull test on the active generators' rows
    ms, xi, c = acceptance_sets()[0]
    res = solve_mmse(ms, xi, c)
    spy = QueriesOnly(ms)
    assert kernel_member(spy, xi, c, res.eta_hat)
    assert spy.asked == [list(range(len(ms)))]
    spy.asked.clear()
    ns = ns_condition(spy, xi, c, res.eta_hat)
    r = ms.weights_matrix @ (xi.values - res.eta_hat.values) ** 2
    active = np.flatnonzero(r >= r.max() - NS_TOL * xi.bound**2).tolist()
    assert spy.asked == [active] and ns.active == len(active)


def test_a_tree_certifies_as_its_corner_set():
    # one certificate path for every set kind: on a TreeModel the rows are its
    # corners' leaf laws and the maxima its sup recursion
    rng = rng_from_seed(4104)
    for depth in (2, 3):
        tm = TreeModel.drift_bound(depth)
        ms = tree_measure_set(tm)
        for level in range(depth):
            c = tm.level_partition(level)
            xi = RandomVariable(tm.space, rng.integers(-32, 33, size=tm.num_leaves) / 16)
            res = solve_mmse(ms, xi, c)
            got, want = certify(tm, xi, c, res), certify(ms, xi, c, res)
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1:] == want[1:]


def test_a_wrong_length_witness_is_no_witness():
    ms, xi, c = acceptance_sets()[1]
    res = solve_mmse(ms, xi, c)
    short = res.p_hat.lam[:-1]
    assert kernel_member(ms, xi, c, res.eta_hat, witness=short) == kernel_member(ms, xi, c, res.eta_hat)
    assert ns_condition(ms, xi, c, res.eta_hat, witness=short) == ns_condition(ms, xi, c, res.eta_hat)
    assert math.isfinite(ns_condition(ms, xi, c, res.eta_hat).rho_sq)


def tree_cases():
    """Drift-bound and per-node TreeModels of depths 2-4 at every level, with
    dyadic leaf values."""
    rng = rng_from_seed(4105)
    out = []
    for depth in (2, 3, 4):
        nodes = 2**depth - 1
        lo = rng.integers(1, 8, size=nodes) / 16
        hi = lo + rng.integers(1, 8, size=nodes) / 16
        for tm in (TreeModel.drift_bound(depth), TreeModel(depth, lo, hi)):
            for level in range(depth + 1):
                x = RandomVariable(tm.space, rng.integers(-32, 33, size=tm.num_leaves) / 16)
                out.append((tm, x, tm.level_partition(level)))
    return out


def bits(report):
    """A certificate's fields, each float by its bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in report)


ONE_PASS = {"acceptance": acceptance_sets, "trees": tree_cases}


@pytest.mark.parametrize("corpus", sorted(ONE_PASS))
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_one_pass_gives_the_three_certificates(corpus, offset):
    # at P_hat, and at the uniform mixture, which the witness tests can fail,
    # so that the LP fallbacks run too
    fallbacks = 0
    for ms, xi, c in ONE_PASS[corpus]():
        xi = RandomVariable(xi.space, xi.values + offset)
        res = solve_mmse(ms, xi, c)
        if not res.converged:
            continue
        k = ms.num_generators()
        for r in (res, res._replace(p_hat=MixtureWeights(np.full(k, 1.0 / k)))):
            cert, member, ns = certify_in_one_pass(ms, xi, c, r)
            witness = r.p_hat.lam
            assert bits(cert) == bits(verify_saddle(ms, xi, c, r))
            assert member is kernel_member(ms, xi, c, r.eta_hat, witness=witness)
            assert bits(ns) == bits(ns_condition(ms, xi, c, r.eta_hat, witness=witness))
            u = c.block_sums(ms.rows(np.arange(k)) * (xi.values - r.eta_hat.values))
            fallbacks += not hull_witness(witness, u / (xi.bound or 1.0))
    assert fallbacks > 0


def solve_request(ms, xi, c):
    """A solve request on ms, as cmd_solve takes it."""
    return Instance(space=ms.space, measure_set=ms, xi=xi, partition=c, filtration=None,
                    tree=None, options=MappingProxyType({}))


@pytest.mark.parametrize("corpus", sorted(ONE_PASS))
def test_solve_reads_the_charged_rows_once(corpus):
    # beyond what the solve reads, cmd_solve asks `rows` once, for the
    # generators P_hat charges: every corner at a tree's leaf level
    cases = ONE_PASS[corpus]()
    cases = cases[:40] if corpus == "acceptance" else cases
    leaf_level = 0
    for ms, xi, c in cases:
        solving = QueriesOnly(ms)
        res = solve_mmse(solving, xi, c)
        if not res.converged:
            continue
        spy = QueriesOnly(ms)
        _, code = cmd_solve(solve_request(spy, xi, c))
        assert code == 0
        assert spy.asked == solving.asked + [np.flatnonzero(res.p_hat.lam).tolist()]
        if c.num_blocks == xi.space.n and xi.space.n == 16:
            assert spy.asked == [list(range(ms.num_generators()))]
            leaf_level += 1
    assert leaf_level == (2 if corpus == "trees" else 0)
