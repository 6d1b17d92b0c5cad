"""Batch command line front end.

    robustmse rho|solve|oracle|stability|gexp <instance.json> [--out result.json]
    robustmse tcsearch [--out result.json] [--seed N] [--trials N]

Exit codes: 0 success, 1 certificate failure, 2 validation error or a file
not read or written, 3 nonconvergence, 4 guard refusal. A result depends
on its instance file alone (tcsearch: on its seed and trials), so identical
instances produce a byte-identical result file apart from the wall_time_s
field, on one BLAS kernel. Another kernel may change the floats,
`iterations`, the SolveTrace counts and the iteration count in a stop
warning, not a verdict.

Calls of main() in one process share what a request leaves for the next:
the parser, the per-depth tree tables, the tree built last, and the
instance file read last with its Instance, digest and estimate
(instances.load_instance and instances.kept). Each is immutable once made,
so no result depends on what ran before it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from types import MappingProxyType

import numpy as np

from .errors import GuardRefusalError, NonconvergenceError, RobustMseError, ValidationError
from .estimator import EstimatorResult, brute_force_mmse, certify, solve_mmse
from .gexp import gexp_comparison
from .instances import (
    DEFAULT_LEVEL,
    Instance,
    build_result,
    canonical_dict,
    dump_result,
    estimator_result_dict,
    instance_digest,
    json_inf,
    kept,
    load_instance,
)
from .spaces import VALUE_TOL
from .stability import (
    DEFAULT_TCSEARCH_SEED,
    DEFAULT_TCSEARCH_TRIALS,
    is_stable,
    mmse_time_consistency_search,
    recursivity_grid,
)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_GUARD = 4


def cmd_rho(inst: Instance) -> tuple[dict, int]:
    # a tree's recursions answer for its corner set, which is never built
    ms, xi, levels = inst.measures(), inst.xi, inst.levels()
    # the argmax and every generator within VALUE_TOL * R of the max: one query
    value, argmax, ties = ms.support(xi.values, VALUE_TOL * xi.unit)
    payload = {
        "rho": {"value": value, "argmax_generator": argmax, "ties": list(ties)},
        "envelopes": [
            {
                "blocks": [list(b) for b in algebra.blocks],
                "ess_sup": upper[algebra.labels].tolist(),
                "ess_inf": lower[algebra.labels].tolist(),
            }
            for algebra, (lower, upper) in zip(levels, ms.envelopes(xi.values, levels))
        ],
    }
    return payload, EXIT_OK


def _estimate(inst: Instance) -> EstimatorResult:
    """solve_mmse on the instance's set, variable and conditioning, which
    solve, oracle and gexp all read: solved once for the instance that
    load_instance returned last (instances.kept), so a request on the file
    that the request before it read does not solve it again."""
    return kept(inst, "estimate", lambda: solve_mmse(inst.measures(), inst.xi, inst.conditioning()))


def cmd_solve(inst: Instance) -> tuple[dict, int]:
    ms, xi, algebra = inst.measures(), inst.xi, inst.conditioning()
    res = _estimate(inst)
    payload = {"estimator": estimator_result_dict(res)}
    if not res.converged:
        return payload, EXIT_NONCONVERGENCE
    cert, member, ns = certify(ms, xi, algebra, res)
    payload["saddle_certificate"] = cert._asdict()
    payload["kernel_member"] = member
    payload["ns_condition"] = dict(ns._asdict(), lower_bound=json_inf(ns.lower_bound))
    ok = cert.passed and member and ns.holds
    return payload, EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_oracle(inst: Instance) -> tuple[dict, int]:
    ms, xi, algebra = inst.measures(), inst.xi, inst.conditioning()
    ms.num_generators()  # on a tree, solve_mmse's corner-count guard: refuse before the ellipsoid
    brute = brute_force_mmse(ms, xi, algebra)
    solved = _estimate(inst)
    alpha_diff = abs(brute.alpha - solved.alpha)
    eta_diff = float(np.max(np.abs(brute.eta_hat.values - solved.eta_hat.values)))
    # alpha and eta scale as R^2 and R, and a shift of xi moves neither alpha nor R
    R = xi.unit
    alpha_tol = 1e-6 * R * R
    agree = alpha_diff <= alpha_tol
    if ms.is_proper():
        agree = agree and eta_diff <= 1e-4 * R
    else:
        # the minimizer need not be unique: judge each side's eta by its value
        best = min(brute.alpha, solved.alpha) + alpha_tol
        squares = ((xi.values - r.eta_hat.values) ** 2 for r in (brute, solved))
        agree = agree and all(ms.support(sq, -np.inf)[0] <= best for sq in squares)
    payload = {
        "brute_force": estimator_result_dict(brute),
        "saddle": estimator_result_dict(solved),
        "alpha_diff": alpha_diff,
        "eta_sup_diff": eta_diff,
        "agree": agree,
    }
    if not (solved.converged and brute.converged):
        return payload, EXIT_NONCONVERGENCE
    return payload, EXIT_OK if agree else EXIT_CERTIFICATE


def cmd_stability(inst: Instance) -> tuple[dict, int]:
    if inst.kind != "filtration":
        raise ValidationError("filtration", "stability command needs a filtration instance")
    ms, xi, f = inst.measure_set, inst.xi, inst.filtration
    report = is_stable(ms, f)
    grid = [
        {"sigma": sigma, "tau": tau, "equal": rec.equal, "max_abs_gap": rec.max_abs_gap}
        for (sigma, tau), rec in recursivity_grid(ms, f, xi).items()
    ]
    payload = {
        "stable": report.stable,
        "scope": "generator-pasting",
        "pastings_checked": report.pastings_checked,
        "hull_tests": report.hull_tests,
        "witness": None
        if report.witness is None
        else {
            "base": report.witness.base.weights.tolist(),
            "tail": report.witness.tail.weights.tolist(),
            "switch_level": report.witness.switch_level,
            "result": report.witness.result.weights.tolist(),
            "hull_residual": report.witness_residual,
        },
        "recursivity": grid,
    }
    return payload, EXIT_OK


def cmd_tcsearch(args) -> tuple[dict, int]:
    seed = args.seed if args.seed is not None else DEFAULT_TCSEARCH_SEED
    trials = args.trials if args.trials is not None else DEFAULT_TCSEARCH_TRIALS
    hit = mmse_time_consistency_search(seed=seed, trials=trials)
    if hit is None:
        return {"found": False, "seed": seed, "trials": trials}, EXIT_OK
    counterexample = Instance(
        space=hit.measure_set.space,
        measure_set=hit.measure_set,
        xi=hit.xi,
        partition=None,
        filtration=hit.filtration,
        tree=None,
        options=MappingProxyType({}),
    )
    doc = canonical_dict(counterexample)
    doc["chains"] = {
        "eta_fine": hit.eta_fine.values.tolist(),
        "eta_chain": hit.eta_chain.values.tolist(),
        "eta_direct": hit.eta_direct.values.tolist(),
    }
    payload = {
        "found": True,
        "seed": seed,
        "trials": trials,
        "trial_index": hit.trial_index,
        "gap": hit.gap,
        "counterexample": doc,
    }
    return payload, EXIT_OK


def cmd_gexp(inst: Instance) -> tuple[dict, int]:
    if inst.kind != "tree":
        raise ValidationError("tree", "gexp command needs a tree instance")
    tm, xi = inst.tree, inst.xi
    level = inst.options.get("level", DEFAULT_LEVEL)
    if level == tm.depth:  # rho and solve take 0..depth; the comparison stops above the leaves
        raise ValidationError("options.level", f"gexp needs an integer in 0..{tm.depth - 1}")
    cmp_report = gexp_comparison(tm, xi, level, _estimate(inst))
    res = cmp_report.recursion
    root_rho = cmp_report.rho_root
    est = cmp_report.estimator
    payload = {
        "root": res.root_value,
        "y_by_level": [res.level_values(d).tolist() for d in range(tm.depth + 1)],
        "z_by_level": [res.level_z(d).tolist() for d in range(tm.depth)],
        "representation": {
            "rho_root": root_rho,
            "abs_gap": abs(root_rho - res.root_value),
        },
        "comparison": {
            "level": level,
            "gexp_cond": cmp_report.gexp_cond.values.tolist(),
            "mmse": cmp_report.mmse.values.tolist(),
            "sup_diff": cmp_report.sup_diff,
            "converged": est.converged,
            "saddle_gap": est.saddle_gap,
            "iterations": est.iterations,
        },
    }
    if not est.converged:
        return payload, EXIT_NONCONVERGENCE
    return payload, EXIT_OK


# tcsearch's options, each with the type its value is read by (None: the
# string as given) and its help. build_parser declares them and _read_argv
# reads them from here, so the two readers take the same options; neither
# sets a default, so an option not given is None.
_TCSEARCH_OPTIONS = {
    "--out": (None, "write the result file here instead of stdout"),
    "--seed": (int, None),
    "--trials": (int, None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused by every
    later one: parse_args leaves the parser unchanged, and an in-process
    caller of main() need not rebuild it per request."""
    parser = argparse.ArgumentParser(
        prog="robustmse",
        description="worst-case mean square estimation on finite sample spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--out", help="write the result file here instead of stdout")

    command("rho", "worst-case expectation and envelopes")
    command("solve", "estimator with certificates")
    command("oracle", "ellipsoid oracle cross-check")
    command("stability", "pasting stability and recursivity")
    tcs = sub.add_parser("tcsearch", help="search for a time-consistency failure")
    for flag, (kind, summary) in _TCSEARCH_OPTIONS.items():
        tcs.add_argument(flag, type=kind, help=summary)
    command("gexp", "tree recursion versus the estimator")
    return parser


_COMMANDS = {
    "rho": cmd_rho,
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "stability": cmd_stability,
    "gexp": cmd_gexp,
}


def _read_argv(argv: list) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) gives, read without
    argparse where argv has a shape the commands take: `<command> <instance>
    [--out P]`, or `tcsearch` with any of its options (_TCSEARCH_OPTIONS)
    in any order (of a repeat the last counts), each value read by its type
    as argparse reads it. Anything else is None, for argparse: help, every
    usage error, `--out=P`, an abbreviation, and any value that starts with
    a '-', which argparse may read as an option."""
    if not argv or not all(type(a) is str for a in argv):
        return None
    command, rest = argv[0], argv[1:]
    if command == "tcsearch":
        found = {flag[2:]: None for flag in _TCSEARCH_OPTIONS}
        if len(rest) % 2:
            return None
        for flag, value in zip(rest[::2], rest[1::2]):
            if flag not in _TCSEARCH_OPTIONS or value[:1] == "-":
                return None
            kind = _TCSEARCH_OPTIONS[flag][0]
            if kind is not None:
                try:
                    value = kind(value)
                except ValueError:  # argparse words the usage error
                    return None
            found[flag[2:]] = value
        return argparse.Namespace(command=command, **found)
    if command not in _COMMANDS or len(rest) not in (1, 3) or rest[0][:1] == "-":
        return None
    if len(rest) == 1:
        return argparse.Namespace(command=command, instance=rest[0], out=None)
    if rest[1] != "--out" or rest[2][:1] == "-":
        return None
    return argparse.Namespace(command=command, instance=rest[0], out=rest[2])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "tcsearch":
            digest = None
            payload, code = cmd_tcsearch(args)
        else:
            inst = load_instance(args.instance)
            digest = instance_digest(inst)
            payload, code = _COMMANDS[args.command](inst)
        text = dump_result(build_result(digest, args.command, payload, time.perf_counter() - start))
        if args.out:  # UTF-8 (ASCII, as JSON escapes the rest) with LF ends, in one write
            with open(args.out, "wb") as fh:
                fh.write(text.encode())
        else:
            sys.stdout.write(text)
    except GuardRefusalError as exc:
        print(f"robustmse: refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NonconvergenceError as exc:
        print(f"robustmse: nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (RobustMseError, OSError, UnicodeDecodeError) as exc:  # or a file not read or written
        print(f"robustmse: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
