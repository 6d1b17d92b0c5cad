"""Output checks: plain numpy over the instance document and the result file.

Nothing here imports ``robustmse``. Each check returns None when the result
holds, or a short reason when it does not; a failed check counts the request
as failed.
"""

from __future__ import annotations

import numpy as np

import gen

DEFAULT_TOL = 1e-8  # the CLI's solver tolerance when the instance sets none
GAP_THRESHOLD = 1e-3  # tcsearch reports gaps above this


def _structure(doc: dict):
    """(generator matrix, xi, conditioning blocks) of a partition or tree instance."""
    if "tree" in doc:
        tree = doc["tree"]
        lo, hi = gen.node_intervals(tree)
        G = gen.tree_corners(tree["depth"], lo, hi)
        blocks = gen.level_blocks(tree["depth"], doc.get("options", {}).get("level", 0))
        return G, np.asarray(tree["leaf_values"], dtype=float), blocks
    return (
        np.asarray(doc["generators"], dtype=float),
        np.asarray(doc["xi"], dtype=float),
        doc["partition"],
    )


def solve(doc: dict, result: dict) -> str | None:
    """alpha is the worst generator's error at eta_hat, the dual value at
    p_hat matches it, and every certificate flag is set."""
    G, xi, blocks = _structure(doc)
    est = result["estimator"]
    eta = np.asarray(est["eta_hat"], dtype=float)
    lam = np.asarray(est["p_hat"], dtype=float)
    alpha = float(est["alpha"])
    tol = DEFAULT_TOL * (1.0 + abs(alpha))
    worst = float(np.max(G @ (xi - eta) ** 2))
    if abs(worst - alpha) > 1e-9 * (1.0 + abs(alpha)):
        return f"alpha {alpha!r} but max_k E_k[(xi - eta_hat)^2] = {worst!r}"
    p = lam @ G
    dual = 0.0
    for b in blocks:
        mass = p[b].sum()
        if mass > 0:
            dual += float(p[b] @ (xi[b] - (p[b] @ xi[b]) / mass) ** 2)
    if abs(dual - alpha) > tol:
        return f"dual value {dual!r} at p_hat is off alpha {alpha!r}"
    if not result["saddle_certificate"]["passed"]:
        return "saddle certificate failed"
    if not result["kernel_member"]:
        return "kernel membership failed"
    if not result["ns_condition"]["holds"]:
        return "NS condition failed"
    return None


def scaled_solve(doc: dict, result: dict, base_alpha: float, s: float) -> str | None:
    """A solve on xi * s: the solve checks, and alpha = s^2 * alpha(unscaled)."""
    reason = solve(doc, result)
    if reason is not None:
        return reason
    alpha = float(result["estimator"]["alpha"])
    want = s * s * base_alpha
    if abs(alpha - want) > 1e-6 * s * s * (1.0 + base_alpha):
        return f"alpha {alpha!r} at scale {s:g}, want {want!r}"
    return None


def oracle(doc: dict, result: dict) -> str | None:
    if not result["agree"]:
        return f"oracle disagrees: alpha_diff {result['alpha_diff']!r}"
    return None


def gexp(doc: dict, result: dict) -> str | None:
    """The root equals this file's backward recursion; corners represent it."""
    tree = doc["tree"]
    lo, hi = gen.node_intervals(tree)
    root = float(gen.backward_recursion(tree["depth"], lo, hi, tree["leaf_values"])[0])
    if abs(result["root"] - root) > 1e-12 * (1.0 + abs(root)):
        return f"root {result['root']!r}, backward recursion gives {root!r}"
    if not result["representation"]["abs_gap"] <= 1e-9:
        return f"representation gap {result['representation']['abs_gap']!r}"
    return None


def tree_rho(doc: dict, result: dict) -> str | None:
    """rho over the corners equals the recursion root; one envelope per level."""
    tree = doc["tree"]
    lo, hi = gen.node_intervals(tree)
    root = float(gen.backward_recursion(tree["depth"], lo, hi, tree["leaf_values"])[0])
    if abs(result["rho"]["value"] - root) > 1e-9 * (1.0 + abs(root)):
        return f"rho {result['rho']['value']!r}, backward recursion gives {root!r}"
    if len(result["envelopes"]) != tree["depth"] + 1:
        return "envelope count differs from the level count"
    return None


def stability(doc: dict, result: dict) -> str | None:
    """Stable by construction; every ordered pair pasted at every level."""
    if result["stable"] is not True:
        return "a stable set was reported unstable"
    k, levels = len(doc["generators"]), len(doc["filtration"])
    if result["pastings_checked"] != k * (k - 1) * levels:
        return f"{result['pastings_checked']} pastings checked, want {k * (k - 1) * levels}"
    return None


def tcsearch(doc: dict, result: dict) -> str | None:
    """found, and the embedded chains reproduce the reported gap above 1e-3."""
    if not result["found"]:
        return "no counterexample found"
    chains = result["counterexample"]["chains"]
    chain = np.asarray([float(v) for v in chains["eta_chain"]])
    direct = np.asarray([float(v) for v in chains["eta_direct"]])
    gap = float(np.max(np.abs(chain - direct)))
    if not gap > GAP_THRESHOLD or abs(gap - result["gap"]) > 1e-12:
        return f"embedded chains give gap {gap!r}, result says {result['gap']!r}"
    return None
