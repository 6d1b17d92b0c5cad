"""Seeded instance generation for the benchmark.

Instances come from this file's own PCG64 code, never from
``robustmse.randgen``, so a change to the package cannot change a workload.
Every weight and value is a dyadic rational, which float64 and the JSON
``repr`` of a float both hold exactly. The functions return plain JSON
documents in the package's instance format; the program only ever sees them
as files.
"""

from __future__ import annotations

import itertools

import numpy as np

WEIGHT_DENOMINATOR = 1024  # generator weights are k/1024, all strictly positive
VALUE_DENOMINATOR = 16  # xi values are j/16 with |xi| <= 2


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent PCG64 stream for (seed, stream...)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *stream])))


def spread(index: int, shift: float) -> float:
    """Point `index` of the shifted van der Corput sequence in [0, 1).

    Any prefix of the sequence covers [0, 1) evenly, so sizes drawn through it
    have nearly the same spread in a short run as in a long one.
    """
    x, base = 0.0, 0.5
    while index:
        x += base * (index & 1)
        index >>= 1
        base /= 2
    return (x + shift) % 1.0


def _positive_weights(rng, n: int) -> np.ndarray:
    extra = rng.multinomial(WEIGHT_DENOMINATOR - n, np.full(n, 1.0 / n))
    return (extra + 1) / WEIGHT_DENOMINATOR


def _values(rng, n: int) -> np.ndarray:
    top = 2 * VALUE_DENOMINATOR
    return rng.integers(-top, top + 1, size=n) / VALUE_DENOMINATOR


def _blocks(rng, n: int, num_blocks: int) -> list[list[int]]:
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=num_blocks - 1, replace=False))
    return [sorted(int(i) for i in b) for b in np.split(perm, cuts)]


def partition_instance(rng, K: int, n: int, B: int) -> dict:
    """A proper partition instance: K strictly positive generators on n points."""
    gens = np.stack([_positive_weights(rng, n) for _ in range(K)])
    return {
        "version": "1",
        "omega": [f"w{i}" for i in range(n)],
        "generators": gens.tolist(),
        "xi": _values(rng, n).tolist(),
        "partition": _blocks(rng, n, B),
    }


def scaled(doc: dict, s: float) -> dict:
    """The same instance with xi multiplied by s."""
    out = dict(doc)
    out["xi"] = [v * s for v in doc["xi"]]
    return out


# --- scenario trees -------------------------------------------------------


def tree_instance(rng, depth: int, per_node: bool, level: int) -> dict:
    """Drift-bound tree (q in [1/4, 3/4], dt = 1/4) or per-node dyadic intervals."""
    tree: dict = {"depth": depth, "dt": 0.25}
    if per_node:
        nodes = 2 ** depth - 1
        lo = rng.integers(2, 8, size=nodes)  # q_lo = lo/16 in [1/8, 7/16]
        hi = lo + rng.integers(1, 15 - lo + 1)  # q_hi = hi/16 in (q_lo, 15/16]
        tree["q_lo"] = (lo / 16).tolist()
        tree["q_hi"] = (hi / 16).tolist()
    else:
        tree["q_lo"], tree["q_hi"] = 0.25, 0.75
    tree["leaf_values"] = _values(rng, 2 ** depth).tolist()
    return {"version": "1", "tree": tree, "options": {"level": level}}


def node_intervals(tree: dict) -> tuple[np.ndarray, np.ndarray]:
    nodes = 2 ** tree["depth"] - 1
    lo = np.broadcast_to(np.asarray(tree["q_lo"], dtype=float), (nodes,))
    hi = np.broadcast_to(np.asarray(tree["q_hi"], dtype=float), (nodes,))
    return lo, hi


def tree_corners(depth: int, q_lo, q_hi) -> np.ndarray:
    """Leaf laws of every corner (each node at q_lo or q_hi), one row each.

    Leaves are ordered by path value with bit 0 = up, nodes heap-numbered;
    a degenerate node contributes one choice.
    """
    choices = [(lo,) if lo == hi else (lo, hi) for lo, hi in zip(q_lo, q_hi)]
    rows = []
    for corner in itertools.product(*choices):
        probs = np.ones(1)
        for d in range(depth):
            q = np.asarray(corner[2 ** d - 1 : 2 ** (d + 1) - 1])
            nxt = np.empty(2 ** (d + 1))
            nxt[0::2] = probs * q
            nxt[1::2] = probs * (1.0 - q)
            probs = nxt
        rows.append(probs)
    return np.stack(rows)


def backward_recursion(depth: int, q_lo, q_hi, leaf_values) -> np.ndarray:
    """Node values of the sup-recursion, root first (heap order)."""
    y = np.asarray(leaf_values, dtype=float)
    levels = [y]
    for d in range(depth - 1, -1, -1):
        lo, hi = q_lo[2 ** d - 1 : 2 ** (d + 1) - 1], q_hi[2 ** d - 1 : 2 ** (d + 1) - 1]
        up, dn = y[0::2], y[1::2]
        y = np.maximum(lo * up + (1 - lo) * dn, hi * up + (1 - hi) * dn)
        levels.append(y)
    return np.concatenate(levels[::-1])


def level_blocks(depth: int, level: int) -> list[list[int]]:
    """Leaves grouped by their first `level` moves."""
    width = 2 ** (depth - level)
    return [list(range(b * width, (b + 1) * width)) for b in range(2 ** level)]


# --- filtrations ----------------------------------------------------------

FILTRATION_DEPTH = 3


def filtration_instance(rng, live_nodes: int, mixtures: int) -> dict:
    """Depth-3 rectangular tree with 2**live_nodes corners as explicit generators.

    The other nodes get a degenerate interval. Such a set is stable along the
    tree's level filtration. `mixtures` dyadic midpoints of distinct corner
    pairs are appended: the hull, and so stability, is unchanged.
    """
    depth = FILTRATION_DEPTH
    nodes = 2 ** depth - 1
    live = rng.choice(nodes, size=live_nodes, replace=False)
    lo = rng.integers(2, 8, size=nodes) / 16
    hi = lo.copy()
    hi[live] = lo[live] + rng.integers(1, 6, size=live_nodes) / 16
    corners = tree_corners(depth, lo, hi)
    extra = []
    for _ in range(mixtures):
        a, b = rng.choice(len(corners), size=2, replace=False)
        extra.append((corners[a] + corners[b]) / 2)
    gens = np.vstack([corners, *extra]) if extra else corners
    return {
        "version": "1",
        "omega": [f"w{i}" for i in range(2 ** depth)],
        "generators": gens.tolist(),
        "xi": _values(rng, 2 ** depth).tolist(),
        "filtration": [level_blocks(depth, lev) for lev in range(depth + 1)],
    }
