"""Bit-identity probe of the solvers, the certificates, the oracle and the tree's set queries.

Solves a fixed, seeded corpus and prints one JSON line per result, every
float in hex (float.hex) and the solver's SolveTrace included, then one line
per family with its record count and the SHA-256 of its records. Two runs of
the same code must print the same lines, whatever the hash seed; a change
meant to keep every result bit for bit must print them too.

    python3 tools/solve_identity.py > before.jsonl
    python3 tools/solve_identity.py --compare before.jsonl after.jsonl

The package is imported from the src/ next to this file. --compare counts,
per family, the records of the second file that differ from (or are missing
in) the first, and exits 1 if any do.

Families:

- trees: drift-bound and per-node trees of depth 2 and 3 (some nodes with
  q_lo = q_hi; dyadic, and drawn uniformly so that their products round),
  solved at every level on the TreeModel and on its corner matrix
  (tree_measure_set);
- random: random_instance(rng_from_seed(808), 8, 4, 8) draws, solved at xi,
  xi * 2^20, xi * 2^-20, xi + 1e4, xi * 1e6 and xi * 1e-6;
- orders, cvar, zeros: the three families of sets that are not proper,
  which tests/test_not_proper.py reads from not_proper_corpus;
- queries: support, with its ties at each tie_tol (under "near_ties" keys), rows,
  mean_row and the envelopes at every level partition of every tree above,
  on the TreeModel and on its corner matrix;
- certificates: certify (saddle certificate, kernel verdict, NS report) on
  every converged solve of trees and of the explicit-set families, keyed by
  the solve's family and case;
- oracle: brute_force_mmse (the ellipsoid oracle) on every explicit-set
  instance of random, orders, cvar and zeros, keyed by that family and case.
- deep: TreeModel.block_solve, called directly, on drift-bound and
  per-node trees of depth 5 to 10 at every level: eta, alpha and phi, the
  mixture P_hat as (index in hex, weight) pairs in its order, and the
  corners added.

Uses only the standard library, numpy and the package.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustmse import (  # noqa: E402
    MeasureSet,
    PartitionAlgebra,
    RandomVariable,
    SampleSpace,
    TreeModel,
    brute_force_mmse,
    solve_mmse,
    tree_measure_set,
)
from robustmse.estimator import MAX_ADDITIONS, certify  # noqa: E402
from robustmse.randgen import random_instance, random_partition, rng_from_seed  # noqa: E402

TREES_PER_KIND = 16  # per depth and kind (drift-bound, dyadic per-node, uniform per-node)
RANDOM_DRAWS = 400
SCALES = {
    "xi": lambda v: v,
    "xi*2^20": lambda v: v * 2.0**20,
    "xi*2^-20": lambda v: v * 2.0**-20,
    "xi+1e4": lambda v: v + 1e4,
    "xi*1e6": lambda v: v * 1e6,
    "xi*1e-6": lambda v: v * 1e-6,
}
TIE_TOLS = (0.0, 1e-9, 1.0 / 16)

# the corpus of sets that are not proper, which tests/test_not_proper.py
# reads from here: (seed, size) per family, and the reproducer of "orders"
ORDER_ROWS = [
    [0, 0, 0, 0, 1], [0, 0, 0, 0.5, 0.5], [0, 0, 0.5, 0, 0.5], [0, 0, 0.5, 0.5, 0],
    [0, 0.5, 0, 0.5, 0], [0, 0.5, 0.5, 0, 0], [0, 1, 0, 0, 0], [0.5, 0, 0, 0.5, 0],
    [0.5, 0, 0.5, 0, 0], [1, 0, 0, 0, 0],
]
ORDER_XI = [0, 2, 0, 1, 2]
ORDER_BLOCKS = [(0, 1), (2, 3, 4)]
NOT_PROPER = {"orders": (2301, 100), "cvar": (2302, 60), "zeros": (2303, 200)}


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _cvar_vertices(p0, beta):
    """The vertices of {Q : 0 <= Q <= p0 / beta, sum Q = 1}, each filled
    greedily along one order of the points, in the order
    itertools.permutations lists the orders. The partly filled point takes
    1 minus the caps of the filled ones, summed in index order, so that two
    orders reaching the same vertex give the same row."""
    caps = p0 / beta
    rows = {}
    for order in itertools.permutations(range(len(p0))):
        filled, total = [], 0.0
        for i in order:
            if total + caps[i] >= 1.0:
                break
            filled.append(i)
            total += caps[i]
        row = np.zeros(len(p0))
        row[filled] = caps[filled]
        row[i] = 1.0 - caps[sorted(filled)].sum()
        rows.setdefault(row.tobytes(), row)
    return np.array(list(rows.values()))


def not_proper_corpus(family):
    """The instances (ms, xi, c) of one family of sets that are not proper,
    in a fixed order (described in tests/test_not_proper.py)."""
    seed, size = NOT_PROPER[family]
    rng = rng_from_seed(seed)
    for _ in range(size):
        if family == "orders":
            space = SampleSpace.of_size(5)
            rows = np.array(ORDER_ROWS, dtype=float)[rng.permutation(len(ORDER_ROWS))]
            yield (
                MeasureSet.from_matrix(space, rows),
                RandomVariable(space, ORDER_XI),
                PartitionAlgebra(space, ORDER_BLOCKS),
            )
            continue
        n = int(rng.integers(4, 6))
        space = SampleSpace.of_size(n)
        if family == "cvar":
            p0 = rng.integers(1, 9, size=n).astype(float)
            p0 /= p0.sum()
            rows = _cvar_vertices(p0, float(rng.choice([0.25, 0.5, 0.75])))
        else:
            k = int(rng.integers(2, 7))
            rows = rng.integers(1, 9, size=(k, n)) * (rng.random((k, n)) < 0.6)
            for row in rows:  # every generator charges some point
                if not row.any():
                    row[rng.integers(n)] = 1
            for i in np.flatnonzero(~rows.any(axis=0)):  # and some generator every point
                rows[rng.integers(k), i] = 1
            rows = rows / rows.sum(axis=1, keepdims=True)
        xi = RandomVariable(space, rng.integers(0, 4, size=n).astype(float))
        yield MeasureSet.from_matrix(space, rows), xi, random_partition(rng, space, 2)


def trees():
    """(name, TreeModel, leaf values), seeded: dyadic intervals and values,
    as perfbench draws them, and intervals and values that are not dyadic,
    whose products round."""
    rng = rng_from_seed(2828)
    for depth in (2, 3):
        nodes, leaves = 2**depth - 1, 2**depth
        for i in range(TREES_PER_KIND):
            values = rng.integers(-32, 33, leaves) / 16
            yield f"drift d{depth} #{i}", TreeModel.drift_bound(depth), values
        for i in range(TREES_PER_KIND):
            lo = rng.integers(1, 8, nodes) / 16
            hi = np.where(rng.random(nodes) < 0.2, lo, rng.integers(8, 16, nodes) / 16)
            values = rng.integers(-32, 33, leaves) / 16
            yield f"per-node d{depth} #{i}", TreeModel(depth, lo, hi), values
        for i in range(TREES_PER_KIND):
            lo = rng.uniform(0.05, 0.5, nodes)
            hi = np.where(rng.random(nodes) < 0.2, lo, lo + rng.uniform(0.0, 0.45, nodes))
            yield f"uniform d{depth} #{i}", TreeModel(depth, lo, hi), rng.normal(0.0, 1.0, leaves)


def deep_trees():
    """(name, TreeModel, leaf values) of depth 5 to 10, seeded: a drift-bound
    tree with dyadic and with normal values, and per-node trees with dyadic
    intervals and values and with intervals and values that are not dyadic."""
    rng = rng_from_seed(2929)
    for depth in range(5, 11):
        nodes, leaves = 2**depth - 1, 2**depth
        tm = TreeModel.drift_bound(depth)
        yield f"drift d{depth} dyadic", tm, rng.integers(-32, 33, leaves) / 16
        yield f"drift d{depth} normal", tm, rng.normal(0.0, 1.0, leaves)
        lo = rng.integers(1, 8, nodes) / 16
        hi = np.where(rng.random(nodes) < 0.2, lo, rng.integers(8, 16, nodes) / 16)
        yield f"per-node d{depth}", TreeModel(depth, lo, hi), rng.integers(-32, 33, leaves) / 16
        lo = rng.uniform(0.05, 0.5, nodes)
        hi = np.where(rng.random(nodes) < 0.2, lo, lo + rng.uniform(0.0, 0.45, nodes))
        yield f"uniform d{depth}", TreeModel(depth, lo, hi), rng.normal(0.0, 1.0, leaves)


def block_record(tm, values, level):
    eta, alpha, phi, mixture, added = tm.block_solve(
        values, tm.level_partition(level), None, MAX_ADDITIONS)
    return {
        "eta": _hex(eta),
        "alpha": alpha.hex(),
        "phi": phi.hex(),
        "mixture": [[hex(k), w.hex()] for k, w in mixture.items()],
        "additions": added,
    }


def solved(ms, xi, c):
    """The solve's record, and certify's record if the solve converged (else None)."""
    try:
        res = solve_mmse(ms, xi, c)
    except Exception as err:  # a refusal is a result too
        return {"error": f"{type(err).__name__}: {err}"}, None
    rec = {
        "eta_hat": _hex(res.eta_hat.values),
        "p_hat": _hex(res.p_hat.lam),
        "alpha": res.alpha.hex(),
        "gap": res.saddle_gap.hex(),
        "iterations": res.iterations,
        "converged": res.converged,
        "warnings": list(res.warnings),
        "trace": res.trace._asdict(),
    }
    return rec, certificate_record(ms, xi, c, res) if res.converged else None


def certificate_record(ms, xi, c, res):
    try:
        cert, member, ns = certify(ms, xi, c, res)
    except Exception as err:  # a refusal is a result too
        return {"error": f"{type(err).__name__}: {err}"}
    return {
        "max_over_P": cert.max_over_P.hex(),
        "value_at_saddle": cert.value_at_saddle.hex(),
        "min_over_eta": cert.min_over_eta.hex(),
        "passed": bool(cert.passed),
        "kernel_member": bool(member),
        "lower_bound": ns.lower_bound.hex(),
        "rho_sq": ns.rho_sq.hex(),
        "holds": bool(ns.holds),
        "active": ns.active,
    }


def solve_records(family, case, ms, xi, c):
    """(family, case, record) of one solve, then of its certificates."""
    rec, certificates = solved(ms, xi, c)
    yield family, case, rec
    if certificates is not None:
        yield "certificates", f"{family} {case}", certificates


def oracle_record(ms, xi, c):
    try:
        res = brute_force_mmse(ms, xi, c)
    except Exception as err:  # a refusal is a result too
        return {"error": f"{type(err).__name__}: {err}"}
    return {
        "eta_hat": _hex(res.eta_hat.values),
        "alpha": res.alpha.hex(),
        "gap": res.saddle_gap.hex(),
        "steps": res.iterations,
        "converged": res.converged,
        "warnings": list(res.warnings),
    }


def query_record(s):
    """The answers of one set s (TreeModel or MeasureSet) to the set queries."""
    out = {"mean_row": _hex(s.mean_row())}
    ks = np.arange(s.num_generators())
    out["rows"] = _hex(s.rows(ks))
    return out


def records():
    """(family, case, record) of the whole corpus, in a fixed order."""
    for name, tm, leaves in trees():
        ms = tree_measure_set(tm)
        xi = RandomVariable(tm.space, leaves)
        levels = [tm.level_partition(level) for level in range(tm.depth + 1)]
        for level, c in enumerate(levels):
            yield from solve_records("trees", f"{name} level {level} tree", tm, xi, c)
            yield from solve_records("trees", f"{name} level {level} corners", ms, xi, c)
        probes = {"xi": leaves, "xi^2": leaves * leaves, "zero": np.zeros(tm.num_leaves),
                  "pairs": np.repeat(leaves[::2], 2)}
        for kind, s in (("tree", tm), ("corners", ms)):
            rec = query_record(s)
            for label, v in probes.items():
                top, k, _ = s.support(v, -np.inf)
                rec[f"support {label}"] = [top.hex(), k]
                for tol in TIE_TOLS:
                    rec[f"near_ties {label} {tol!r}"] = list(s.support(v, tol)[2])
                envelopes = s.envelopes(v, levels)
                rec[f"envelopes {label}"] = [[_hex(lo), _hex(hi)] for lo, hi in envelopes]
            yield "queries", f"{name} {kind}", rec
    for family, case, (ms, xi, c) in explicit_instances():
        yield from solve_records(family, case, ms, xi, c)
    for family, case, (ms, xi, c) in explicit_instances():
        yield "oracle", f"{family} {case}", oracle_record(ms, xi, c)
    for name, tm, values in deep_trees():
        for level in range(tm.depth + 1):
            yield "deep", f"{name} level {level}", block_record(tm, values, level)


def explicit_instances():
    """(family, case, (ms, xi, c)) of the explicit-set families, in a fixed order."""
    rng = rng_from_seed(808)
    for i in range(RANDOM_DRAWS):
        ms, xi, c = random_instance(rng, 8, 4, 8)
        for label, scale in SCALES.items():
            yield "random", f"#{i} {label}", (ms, RandomVariable(xi.space, scale(xi.values)), c)
    for family in NOT_PROPER:
        for i, instance in enumerate(not_proper_corpus(family)):
            yield family, f"#{i}", instance


def run():
    digests, counts = {}, {}
    for family, case, rec in records():
        line = json.dumps({"family": family, "case": case, **rec}, sort_keys=True)
        print(line)
        digests.setdefault(family, hashlib.sha256()).update(line.encode() + b"\n")
        counts[family] = counts.get(family, 0) + 1
    for family, h in digests.items():
        print(json.dumps({"family": family, "records": counts[family], "sha256": h.hexdigest()}))


def compare(old, new):
    def load(path):
        out = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if "case" in rec:
                out[rec["family"], rec["case"]] = line
        return out

    a, b = load(old), load(new)
    differ: dict[str, int] = {}
    for key, line in b.items():
        differ.setdefault(key[0], 0)
        differ[key[0]] += a.get(key) != line
    missing = len(a.keys() - b.keys())
    print(json.dumps({"records": len(b), "differing": differ, "missing_in_new": missing}))
    return 1 if missing or any(differ.values()) else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    sys.exit(compare(*args.compare) if args.compare else run())
