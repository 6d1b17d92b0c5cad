"""Binary scenario trees with per-node transition-probability intervals.

The backward sup-recursion on such a tree is the discrete conditional
nonlinear expectation with driver |z|: one step reads

    y = max over q in {q_lo, q_hi} of q*y_up + (1-q)*y_down,

attained at an endpoint because the objective is linear in q, and equals
(y_up+y_down)/2 + sqrt(dt)*|y_up-y_down|/2 for the symmetric interval
produced by the discrete drift bound |mu| <= 1 (q = (1 +/- sqrt(dt))/2).
The same tree induces a rectangular measure set (all corner choices of the
node probabilities) whose worst-case expectation reproduces the recursion,
which is how the tree plugs into the estimator machinery for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, GuardRefusalError
from .estimator import EstimatorResult, SolverConfig, solve_mmse
from .measures import MeasureSet
from .spaces import PartitionAlgebra, RandomVariable, SampleSpace
from .sublinear import rho

# corner matrix of tree_measure_set: 2^24 float64 entries = 128 MiB; building
# it takes about five times that at its peak
MAX_CORNER_ENTRIES = 2 ** 24


@dataclass(frozen=True, eq=False)
class TreeModel:
    """Non-recombining binary tree; nodes carry an up-move probability interval.

    Non-leaf nodes are numbered heap-style: node (depth d, path p) has id
    2^d - 1 + p, with path bit 0 = up. Leaves are the depth-T paths, ordered
    by path value, and label the induced sample space ("uu", "ud", ...).
    """

    depth: int
    q_lo: np.ndarray = field(repr=False)
    q_hi: np.ndarray = field(repr=False)
    dt: float = 0.25

    def __init__(self, depth, q_lo, q_hi, dt=0.25):
        depth = int(depth)
        if depth < 1:
            raise ArgumentError("tree depth must be at least 1")
        if not dt > 0:
            raise ArgumentError("dt must be positive")
        nodes = 2 ** depth - 1
        q_lo = np.broadcast_to(np.asarray(q_lo, dtype=float), (nodes,)).copy()
        q_hi = np.broadcast_to(np.asarray(q_hi, dtype=float), (nodes,)).copy()
        if np.any(q_lo <= 0) or np.any(q_hi >= 1) or np.any(q_lo > q_hi):
            raise ArgumentError("need 0 < q_lo <= q_hi < 1 at every node")
        q_lo.flags.writeable = False
        q_hi.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "q_lo", q_lo)
        object.__setattr__(self, "q_hi", q_hi)
        object.__setattr__(self, "dt", float(dt))

    @classmethod
    def drift_bound(cls, depth: int, dt: float = 0.25) -> "TreeModel":
        """Interval [(1-sqrt(dt))/2, (1+sqrt(dt))/2] from the unit drift bound.

        Requires dt < 1 so the interval stays inside (0, 1); the default
        dt = 1/4 gives q in [1/4, 3/4].
        """
        if not 0 < dt < 1:
            raise ArgumentError("drift-bound tree needs 0 < dt < 1")
        root = math.sqrt(dt)
        return cls(depth, (1 - root) / 2.0, (1 + root) / 2.0, dt)

    @property
    def num_leaves(self) -> int:
        return 2 ** self.depth

    @property
    def num_internal(self) -> int:
        return 2 ** self.depth - 1

    def sample_space(self) -> SampleSpace:
        labels = []
        for leaf in range(self.num_leaves):
            bits = format(leaf, f"0{self.depth}b")
            labels.append(bits.replace("0", "u").replace("1", "d"))
        return SampleSpace(tuple(labels))

    def level_partition(self, level: int) -> PartitionAlgebra:
        """Leaves grouped by their first `level` moves."""
        if not 0 <= level <= self.depth:
            raise ArgumentError(f"level must lie in 0..{self.depth}")
        space = self.sample_space()
        shift = self.depth - level
        blocks = {}
        for leaf in range(self.num_leaves):
            blocks.setdefault(leaf >> shift, []).append(leaf)
        return PartitionAlgebra(space, [tuple(b) for b in blocks.values()])


def tree_measure_set(tm: TreeModel) -> MeasureSet:
    """All corner measures: each node independently at q_lo or q_hi.

    A node with q_lo == q_hi contributes one choice, so a tree with m
    non-degenerate nodes has 2^m corners (a fully degenerate tree yields a
    single generator), in itertools.product order over the nodes: the bits of
    a corner's index, read from the highest, choose q_hi at the non-degenerate
    nodes in id order. The (2^m, 2^T) corner matrix is filled level by level
    and refused, before anything is allocated, when it would exceed
    MAX_CORNER_ENTRIES float64 entries; corners are never subsampled, which
    would silently change the represented set. With every node non-degenerate
    that admits depth 4 (2^15 corners) and refuses depth 5 (2^31 corners).
    """
    free = tm.q_lo != tm.q_hi
    num_corners = 2 ** int(free.sum())
    if num_corners * tm.num_leaves > MAX_CORNER_ENTRIES:
        raise GuardRefusalError(
            f"{num_corners} corners x {tm.num_leaves} leaves exceed the limit of "
            f"{MAX_CORNER_ENTRIES} corner-matrix entries (128 MiB)"
        )
    # bit of the corner index read by each node: the number of later free nodes
    shift = np.cumsum(free[::-1])[::-1] - free
    high = ((np.arange(num_corners)[:, None] >> shift) & 1).astype(bool) & free
    q = np.where(high, tm.q_hi, tm.q_lo)
    probs = np.ones((num_corners, 1))
    for d in range(tm.depth):
        q_d = q[:, 2 ** d - 1 : 2 ** (d + 1) - 1]
        nxt = np.empty((num_corners, 2 ** (d + 1)))
        nxt[:, 0::2] = probs * q_d
        nxt[:, 1::2] = probs * (1.0 - q_d)
        probs = nxt
    return MeasureSet.from_matrix(tm.sample_space(), probs)


@dataclass(frozen=True, eq=False)
class GExpResult:
    """Solution of the backward recursion: y per tree node, z per internal node.

    Node id layout matches TreeModel; leaves occupy ids 2^T - 1 .. 2^(T+1) - 2.
    """

    tree: TreeModel
    y: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)

    @property
    def root_value(self) -> float:
        return float(self.y[0])

    def level_values(self, level: int) -> np.ndarray:
        return self.y[2 ** level - 1 : 2 ** (level + 1) - 1]

    def level_variable(self, level: int) -> RandomVariable:
        """y at the given level, broadcast to the leaves below each node."""
        part = self.tree.level_partition(level)
        return part.broadcast(self.level_values(level))


def g_expectation(tm: TreeModel, xi_leaf, direction: str = "sup") -> GExpResult:
    """Backward recursion from the leaf values; direction "inf" flips the
    endpoint selection (used for the negation identity)."""
    xi_leaf = np.asarray(xi_leaf, dtype=float)
    if xi_leaf.shape != (tm.num_leaves,):
        raise ArgumentError(f"expected {tm.num_leaves} leaf values")
    if not np.all(np.isfinite(xi_leaf)):
        raise ArgumentError("leaf values must be finite")
    if direction not in ("sup", "inf"):
        raise ArgumentError("direction must be 'sup' or 'inf'")
    pick = np.maximum if direction == "sup" else np.minimum
    total = 2 ** (tm.depth + 1) - 1
    y = np.empty(total)
    z = np.empty(tm.num_internal)
    y[2 ** tm.depth - 1 :] = xi_leaf
    half_width = 2.0 * math.sqrt(tm.dt)
    for d in range(tm.depth - 1, -1, -1):
        lo, hi = 2 ** d - 1, 2 ** (d + 1) - 1
        child = y[hi : 2 ** (d + 2) - 1]
        y_up, y_dn = child[0::2], child[1::2]
        qlo, qhi = tm.q_lo[lo:hi], tm.q_hi[lo:hi]
        y[lo:hi] = pick(qlo * y_up + (1 - qlo) * y_dn, qhi * y_up + (1 - qhi) * y_dn)
        z[lo:hi] = (y_up - y_dn) / half_width
    return GExpResult(tree=tm, y=y, z=z)


@dataclass(frozen=True)
class GexpCompareReport:
    gexp_cond: RandomVariable
    mmse: RandomVariable
    sup_diff: float
    estimator: EstimatorResult
    rho_root: float


def compare_gexp_mmse(
    tm: TreeModel,
    xi_leaf,
    level: int,
    cfg: SolverConfig | None = None,
) -> GexpCompareReport:
    """Recursion values at a level versus the worst-case estimator there.

    The two disagree in general; the report carries the sup-norm difference
    and the full estimator result for auditing, and rho_root, the worst-case
    expectation of xi over the corner set, which equals the recursion's root.
    """
    if not 0 <= level < tm.depth:
        raise ArgumentError(f"comparison level must lie in 0..{tm.depth - 1}")
    ms = tree_measure_set(tm)
    space = tm.sample_space()
    xi = RandomVariable(space, xi_leaf)
    part = tm.level_partition(level)
    gres = g_expectation(tm, xi_leaf)
    gexp_cond = gres.level_variable(level)
    est = solve_mmse(ms, xi, part, cfg)
    sup_diff = float(np.max(np.abs(gexp_cond.values - est.eta_hat.values)))
    return GexpCompareReport(
        gexp_cond=gexp_cond,
        mmse=est.eta_hat,
        sup_diff=sup_diff,
        estimator=est,
        rho_root=rho(ms, xi).value,
    )
