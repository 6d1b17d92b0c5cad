"""Batch command line front end.

    robustmse solve|rho|oracle|stability|tcsearch|gexp <instance.json>
              [--out result.json] [--tol X] [--seed N] [--trials N]

Exit codes: 0 success, 1 certificate failure, 2 validation error,
3 nonconvergence, 4 guard refusal. Identical instance + options + seed
produce a byte-identical result file apart from the wall_time_s field.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .errors import GuardRefusalError, NonconvergenceError, RobustMseError, ValidationError
from .estimator import (
    SolverConfig,
    brute_force_mmse,
    kernel_member,
    ns_condition,
    solve_mmse,
    verify_saddle,
)
from .gexp import compare_gexp_mmse, tree_envelopes, tree_rho
from .instances import (
    Instance,
    _json_inf,
    build_result,
    certificate_dict,
    dump_result,
    estimator_result_dict,
    instance_digest,
    load_instance,
    rv_values,
    serialize_instance,
)
from .measures import is_proper
from .stability import (
    DEFAULT_TCSEARCH_SEED,
    is_stable,
    mmse_time_consistency_search,
    recursivity_check,
)
from .sublinear import conditional_envelopes, rho

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_GUARD = 4


def _solver_config(inst: Instance, args) -> SolverConfig:
    tol = args.tol if args.tol is not None else inst.options.get("tol", 1e-8)
    max_iter = int(inst.options.get("max_iter", 10_000))
    return SolverConfig(tol=float(tol), max_iter=max_iter)


def cmd_rho(inst: Instance, args) -> tuple[dict, int]:
    xi = inst.xi
    if inst.kind == "tree":
        # the tree's recursions answer for its corner set, which is never built
        value = tree_rho(inst.tree, xi.values)
        envelopes = tree_envelopes(inst.tree, xi.values)
    else:
        ms = inst.generators()
        value = rho(ms, xi)
        levels = [inst.partition] if inst.kind == "partition" else inst.filtration.levels
        envelopes = [(lev, *conditional_envelopes(ms, xi, lev)) for lev in levels]
    payload = {
        "rho": {
            "value": value.value,
            "argmax_generator": value.argmax_generator,
            "ties": list(value.ties),
        },
        "envelopes": [
            {
                "blocks": [list(b) for b in algebra.blocks],
                "ess_sup": rv_values(upper),
                "ess_inf": rv_values(lower),
            }
            for algebra, lower, upper in envelopes
        ],
    }
    return payload, EXIT_OK


def cmd_solve(inst: Instance, args) -> tuple[dict, int]:
    ms, xi = inst.generators(), inst.xi
    algebra = inst.conditioning()
    cfg = _solver_config(inst, args)
    res = solve_mmse(ms, xi, algebra, cfg)
    payload = {"estimator": estimator_result_dict(res)}
    if not res.converged:
        return payload, EXIT_NONCONVERGENCE
    cert = verify_saddle(ms, xi, algebra, res, cfg)
    member = kernel_member(ms, xi, algebra, res.eta_hat, witness=res.p_hat.lam)
    ns = ns_condition(ms, xi, algebra, res.eta_hat, tol=float(inst.options.get("ns_tol", 1e-6)))
    payload["saddle_certificate"] = certificate_dict(cert)
    payload["kernel_member"] = member
    payload["ns_condition"] = {
        "lower_bound": _json_inf(ns.lower_bound),
        "rho_sq": ns.rho_sq,
        "holds": ns.holds,
        "active": ns.active,
    }
    ok = cert.passed and member and ns.holds
    return payload, EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_oracle(inst: Instance, args) -> tuple[dict, int]:
    ms, xi = inst.generators(), inst.xi
    algebra = inst.conditioning()
    cfg = _solver_config(inst, args)
    brute = brute_force_mmse(ms, xi, algebra)
    solved = solve_mmse(ms, xi, algebra, cfg)
    alpha_diff = abs(brute.alpha - solved.alpha)
    eta_diff = float(np.max(np.abs(brute.eta_hat.values - solved.eta_hat.values)))
    # alpha scales as bound(xi)^2 and eta as bound(xi), so the test is unit-free
    M = xi.bound
    agree = alpha_diff <= 1e-6 * M * M
    if is_proper(ms):
        agree = agree and eta_diff <= 1e-4 * M
    else:
        # the minimizer need not be unique: judge each side's eta by its value
        best = min(brute.alpha, solved.alpha) + 1e-6 * M * M
        agree = agree and all(
            rho(ms, (xi - r.eta_hat) * (xi - r.eta_hat)).value <= best for r in (brute, solved)
        )
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


def cmd_stability(inst: Instance, args) -> tuple[dict, int]:
    if inst.kind != "filtration":
        raise ValidationError("filtration", "stability command needs a filtration instance")
    ms, xi, f = inst.generators(), inst.xi, inst.filtration
    report = is_stable(ms, f)
    grid = []
    for sigma in range(len(f.levels)):
        for tau in range(sigma, len(f.levels)):
            rec = recursivity_check(ms, f, xi, sigma, tau)
            grid.append(
                {
                    "sigma": sigma,
                    "tau": tau,
                    "equal": rec.equal,
                    "max_abs_gap": rec.max_abs_gap,
                }
            )
    payload = {
        "stable": report.stable,
        "scope": report.scope,
        "pastings_checked": report.pastings_checked,
        "hull_tests": report.hull_tests,
        "witness": None
        if report.witness is None
        else {
            "base": [float(v) for v in report.witness.base.weights],
            "tail": [float(v) for v in report.witness.tail.weights],
            "switch_level": report.witness.switch_level,
            "result": [float(v) for v in report.witness.result.weights],
            "hull_residual": report.witness_residual,
        },
        "recursivity": grid,
    }
    return payload, EXIT_OK


def cmd_tcsearch(args) -> tuple[dict, int]:
    seed = args.seed if args.seed is not None else DEFAULT_TCSEARCH_SEED
    trials = args.trials if args.trials is not None else 1000
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
        options={},
    )
    doc = serialize_instance(counterexample, exact_strings=True)
    doc["chains"] = {
        "eta_fine": rv_values(hit.eta_fine),
        "eta_chain": rv_values(hit.eta_chain),
        "eta_direct": rv_values(hit.eta_direct),
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


def cmd_gexp(inst: Instance, args) -> tuple[dict, int]:
    if inst.kind != "tree":
        raise ValidationError("tree", "gexp command needs a tree instance")
    tm, xi = inst.tree, inst.xi
    level = int(inst.options.get("level", 0))
    cmp_report = compare_gexp_mmse(tm, xi.values, level, _solver_config(inst, args))
    res = cmp_report.recursion
    root_rho = cmp_report.rho_root
    est = cmp_report.estimator
    payload = {
        "root": res.root_value,
        "y_by_level": [
            [float(v) for v in res.level_values(d)] for d in range(tm.depth + 1)
        ],
        "z_by_level": [
            [float(v) for v in res.z[2 ** d - 1 : 2 ** (d + 1) - 1]]
            for d in range(tm.depth)
        ],
        "representation": {
            "rho_root": root_rho,
            "abs_gap": abs(root_rho - res.root_value),
        },
        "comparison": {
            "level": level,
            "gexp_cond": rv_values(cmp_report.gexp_cond),
            "mmse": rv_values(cmp_report.mmse),
            "sup_diff": cmp_report.sup_diff,
            "converged": est.converged,
            "saddle_gap": est.saddle_gap,
            "iterations": est.iterations,
        },
    }
    if not est.converged:
        return payload, EXIT_NONCONVERGENCE
    return payload, EXIT_OK


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

    def common(p, with_instance=True):
        if with_instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--out", help="write the result file here instead of stdout")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")

    common(sub.add_parser("rho", help="worst-case expectation and envelopes"))
    common(sub.add_parser("solve", help="estimator with certificates"))
    common(sub.add_parser("oracle", help="ellipsoid oracle cross-check"))
    common(sub.add_parser("stability", help="pasting stability and recursivity"))
    tcs = sub.add_parser("tcsearch", help="search for a time-consistency failure")
    tcs.add_argument("--out", help="write the result file here instead of stdout")
    tcs.add_argument("--seed", type=int, default=None)
    tcs.add_argument("--trials", type=int, default=None)
    common(sub.add_parser("gexp", help="tree recursion versus the estimator"))
    return parser


_COMMANDS = {
    "rho": cmd_rho,
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "stability": cmd_stability,
    "gexp": cmd_gexp,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "tcsearch":
            digest = None
            payload, code = cmd_tcsearch(args)
        else:
            inst = load_instance(args.instance)
            digest = instance_digest(inst)
            payload, code = _COMMANDS[args.command](inst, args)
    except GuardRefusalError as exc:
        print(f"robustmse: refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NonconvergenceError as exc:
        print(f"robustmse: nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except RobustMseError as exc:
        print(f"robustmse: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    doc = build_result(digest, args.command, payload, time.perf_counter() - start)
    text = dump_result(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
