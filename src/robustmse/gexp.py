"""Binary scenario trees with per-node transition-probability intervals.

The backward sup-recursion on such a tree is the discrete conditional
nonlinear expectation with driver |z|: one step reads

    y = max over q in {q_lo, q_hi} of q*y_up + (1-q)*y_down,

attained at an endpoint because the objective is linear in q, and equals
(y_up+y_down)/2 + sqrt(dt)*|y_up-y_down|/2 for the symmetric interval
produced by the discrete drift bound |mu| <= 1 (q = (1 +/- sqrt(dt))/2).
The same tree induces a rectangular measure set (all corner choices of the
node probabilities). A rectangular set is a recursive multiple-prior set
(Epstein & Schneider 2003), so the largest expectation over its 2^m corners
is the recursion's root, attained at the corner that takes the maximizing
endpoint at every node. TreeModel answers the corner set's queries that way,
under the names a MeasureSet answers them from its weight matrix
(num_generators, support, near_ties, rows, mean_row, envelopes), in O(2^T)
per query, and is_proper, which always holds; so rho, the envelopes, the
estimator, its oracle, penalized_value and minimax_gap take either kind of
set and never enumerate the corners. tree_measure_set builds the corner
matrix for solve's certificates, which need every generator.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, GuardRefusalError
from .estimator import EstimatorResult, solve_mmse
from .measures import MeasureSet
from .spaces import Immutable, PartitionAlgebra, RandomVariable, SampleSpace

# corner matrix of tree_measure_set: 2^24 float64 entries = 128 MiB; building
# it takes about five times that at its peak. The same bound caps every tree
# request, since the estimator's p_hat is dense over the corners
MAX_CORNER_ENTRIES = 2 ** 24
DEFAULT_DT = 0.25  # a tree's time step when none is given


class TreeModel(Immutable):
    """Non-recombining binary tree; nodes carry an up-move probability interval.

    Non-leaf nodes are numbered heap-style: node (depth d, path p) has id
    2^d - 1 + p, with path bit 0 = up. Leaves are the depth-T paths, ordered
    by path value, and label the induced sample space ("uu", "ud", ...).
    """

    depth: int
    q_lo: np.ndarray
    q_hi: np.ndarray
    dt: float

    def __init__(self, depth, q_lo, q_hi, dt=DEFAULT_DT):
        depth = int(depth)
        if depth < 1:
            raise ArgumentError("tree depth must be at least 1")
        if not 0 < dt < math.inf:
            raise ArgumentError("dt must be positive and finite")
        nodes = 2 ** depth - 1
        q_lo = np.broadcast_to(np.asarray(q_lo, dtype=float), (nodes,)).copy()
        q_hi = np.broadcast_to(np.asarray(q_hi, dtype=float), (nodes,)).copy()
        if not ((0 < q_lo) & (q_lo <= q_hi) & (q_hi < 1)).all():  # also refuses NaN
            raise ArgumentError("need 0 < q_lo <= q_hi < 1 at every node")
        q_lo.flags.writeable = False
        q_hi.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "q_lo", q_lo)
        object.__setattr__(self, "q_hi", q_hi)
        object.__setattr__(self, "dt", float(dt))

    @classmethod
    def drift_bound(cls, depth: int, dt: float = DEFAULT_DT) -> "TreeModel":
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

    @cached_property
    def space(self) -> SampleSpace:
        labels = []
        for leaf in range(self.num_leaves):
            bits = format(leaf, f"0{self.depth}b")
            labels.append(bits.replace("0", "u").replace("1", "d"))
        return SampleSpace(tuple(labels))

    def level_partition(self, level: int) -> PartitionAlgebra:
        """Leaves grouped by their first `level` moves: in the heap order, runs
        of 2^(depth - level) consecutive leaves."""
        if not 0 <= level <= self.depth:
            raise ArgumentError(f"level must lie in 0..{self.depth}")
        size = 2 ** (self.depth - level)
        runs = [range(b, b + size) for b in range(0, self.num_leaves, size)]
        return PartitionAlgebra(self.space, runs)

    # --- the corner set, queried without enumerating it -------------------

    @cached_property
    def free(self) -> np.ndarray:
        """Nodes with q_lo < q_hi; each doubles the number of corners."""
        free = self.q_lo != self.q_hi
        free.flags.writeable = False
        return free

    @cached_property
    def _bits(self) -> np.ndarray:
        """The value of the corner-index bit each node reads (0 at a fixed node)."""
        bits = (1 << (np.cumsum(self.free[::-1])[::-1] - self.free)) * self.free
        bits.flags.writeable = False
        return bits

    def num_generators(self) -> int:
        """The number of corners, the set's generators; GuardRefusalError,
        before anything is allocated, when the corner matrix would exceed
        MAX_CORNER_ENTRIES float64 entries. With every node free that admits
        depth 4 (2^15 corners) and refuses depth 5 (2^31 corners)."""
        num_corners = 2 ** int(self.free.sum())
        if num_corners * self.num_leaves > MAX_CORNER_ENTRIES:
            raise GuardRefusalError(
                f"{num_corners} corners x {self.num_leaves} leaves exceed the limit of "
                f"{MAX_CORNER_ENTRIES} corner-matrix entries (128 MiB)"
            )
        return num_corners

    def _leaf_products(self, corners) -> np.ndarray:
        """Leaf probabilities of the given corners, one row each.

        The bits of a corner's index, read from the highest, choose q_hi at
        the free nodes in id order.
        """
        high = np.asarray(corners, dtype=np.int64)[:, None, None] & self._bits[:, None]
        return self._path_products(np.where(high, self._moves[1], self._moves[0]))

    @cached_property
    def _moves(self) -> np.ndarray:
        """(up, down) probabilities of each node at q_lo (row 0) and q_hi (row 1)."""
        q = np.array([self.q_lo, self.q_hi])
        moves = np.array([q, 1.0 - q]).transpose(1, 2, 0)
        moves.flags.writeable = False
        return moves

    def _path_products(self, moves: np.ndarray) -> np.ndarray:
        """Leaf probabilities for rows of (up, down) probabilities per node: the
        products along each path, filled in level by level."""
        probs = moves[:, 0]
        for d in range(1, self.depth):
            nodes = moves[:, 2 ** d - 1 : 2 ** (d + 1) - 1]
            probs = (probs[:, :, None] * nodes).reshape(len(moves), -1)
        return probs

    def rows(self, ks) -> np.ndarray:
        """Leaf laws of corners ks: those rows of tree_measure_set(self).weights_matrix,
        bit for bit (the same products, divided by their sums as a MeasureSet's are)."""
        probs = self._leaf_products(ks)
        return probs / probs.sum(axis=1, keepdims=True)

    def is_proper(self) -> bool:
        """Always: 0 < q_lo <= q_hi < 1 at every node, so every corner charges every leaf."""
        return True

    def mean_row(self) -> np.ndarray:
        """Leaf law of the uniform mixture of the corners: the midpoint tree,
        since under it each node is at q_lo or q_hi with probability 1/2,
        independently of the others."""
        up = (self.q_lo + self.q_hi) / 2.0
        probs = self._path_products(np.array([up, 1.0 - up]).T[None])[0]
        return probs / probs.sum()

    @cached_property
    def _levels(self) -> list[tuple]:
        """Per level, deepest first: the two endpoints q_lo, q_hi of its nodes
        (rows), and their down probabilities."""
        at = [slice(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(self.depth - 1, -1, -1)]
        return [(self._moves[:, nodes, 0], self._moves[:, nodes, 1]) for nodes in at]

    def _sweep(self, v, pick):
        """Backward recursion on leaf values v: the value y of every node,
        and at each internal node the values of its two endpoints over the
        children's y, row 0 for q_lo and row 1 for q_hi; y = pick(row 0, row 1)."""
        ys, ends = [np.asarray(v, dtype=float)], []
        for q, down in self._levels:
            e = q * ys[-1][0::2]
            e += down * ys[-1][1::2]
            ys.append(pick(e[0], e[1]))
            ends.append(e)
        return np.concatenate(ys[::-1]), np.concatenate(ends[::-1], axis=1)

    def support(self, v) -> tuple[float, int]:
        """max over corners c of E_c[v], and the smallest corner attaining it.

        The sup recursion is that maximum: the choices below a node do not
        depend on those elsewhere. Each node takes q_hi only where it is
        strictly better, so ties go to q_lo, the 0 bit, and the corner read
        off the choices is the smallest maximizing index.
        """
        y, (a, b) = self._sweep(v, np.maximum)
        return float(y[0]), int((b > a) @ self._bits)

    def near_ties(self, v, tie_tol: float) -> tuple[int, ...]:
        """Every corner c with max_c' E_c'[v] - E_c[v] <= tie_tol, in index order.

        The answer can be every corner, so the corner count is checked first
        (num_generators).

        With y the recursion's values and Q(u, c_u) the value of c's endpoint
        at node u over the children's y, the shortfall of c is
        sum over nodes u of reach_c(u) * (y(u) - Q(u, c_u)), reach_c(u) being
        the probability under c of passing through u. Every term is >= 0, so
        the walk extends partial corners node by node in id order, the bit
        order of the index with q_lo first, and drops one as soon as its
        partial sum exceeds tie_tol.
        """
        self.num_generators()
        y, ends = self._sweep(v, np.maximum)
        nodes = self.num_internal
        shortfall = (y[:nodes] - ends).T
        q = self._moves[:, :, 0].T  # (nodes, 2): q_lo, q_hi
        index = np.zeros(1, dtype=np.int64)
        total = np.zeros(1)
        reach = np.ones((1, nodes))
        for u, width in enumerate((self.free + 1).tolist()):
            # the partial corners times the width choices at u, row by row
            grown = (total[:, None] + reach[:, u, None] * shortfall[u, :width]).ravel()
            kept = (grown <= tie_tol).nonzero()[0]
            parent, choice = np.divmod(kept, width)
            index = index[parent] * width + choice
            total, reach = grown[kept], reach[parent]
            if 2 * u + 1 < nodes:
                p = q[u, choice]
                reach[:, 2 * u + 1] = reach[:, u] * p
                reach[:, 2 * u + 2] = reach[:, u] * (1.0 - p)
        return tuple(index.tolist())

    def envelopes(self, v, algebras) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level partition (else ArgumentError), the smallest and largest
        conditional mean of v per block over the corners: one inf and one sup
        sweep, read at the blocks' nodes (a subtree's choices are its own)."""
        levels = [c.num_blocks.bit_length() - 1 for c in algebras]
        leaves = np.arange(self.num_leaves)  # level l puts leaf i in block i >> (depth - l)
        if any(lv > self.depth or not np.array_equal(c.labels, leaves >> (self.depth - lv))
               for c, lv in zip(algebras, levels)):
            raise ArgumentError("a tree's envelopes are taken at its level partitions only")
        (lower, _), (upper, _) = (self._sweep(v, pick) for pick in (np.minimum, np.maximum))
        return [(_level(lower, lv), _level(upper, lv)) for lv in levels]


def tree_measure_set(tm: TreeModel) -> MeasureSet:
    """All corner measures: each node independently at q_lo or q_hi.

    A node with q_lo == q_hi contributes one choice, so a tree with m
    non-degenerate nodes has 2^m corners (a fully degenerate tree yields a
    single generator), in itertools.product order over the nodes: the bits of
    a corner's index, read from the highest, choose q_hi at the non-degenerate
    nodes in id order. The (2^m, 2^T) corner matrix is filled level by level
    and refused by TreeModel.num_generators before anything is allocated;
    corners are never subsampled, which would silently change the represented
    set. Only the commands that need every generator build it; the corner
    set's other queries are TreeModel's.
    """
    return MeasureSet.from_matrix(tm.space, tm._leaf_products(np.arange(tm.num_generators())))


class GExpResult(NamedTuple):
    """Solution of the backward recursion: y per tree node, z per internal node.

    Node id layout matches TreeModel; leaves occupy ids 2^T - 1 .. 2^(T+1) - 2.
    Results compare and hash by identity, as their arrays cannot.
    """

    y: np.ndarray
    z: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def root_value(self) -> float:
        return float(self.y[0])

    def level_values(self, level: int) -> np.ndarray:
        """y at the nodes of level (0..T)."""
        return _level(self.y, level)

    def level_z(self, level: int) -> np.ndarray:
        """z at the internal nodes of level (0..T-1)."""
        return _level(self.z, level)


def _level(nodes: np.ndarray, level: int) -> np.ndarray:
    if not 0 <= level < len(nodes).bit_length():  # nodes: 2^L - 1 values, level by level
        raise ArgumentError(f"level {level} out of range 0..{len(nodes).bit_length() - 1}")
    return nodes[2**level - 1 : 2 ** (level + 1) - 1]


def _leaf_array(tm: TreeModel, xi_leaf) -> np.ndarray:
    xi_leaf = np.asarray(xi_leaf, dtype=float)
    if xi_leaf.shape != (tm.num_leaves,):
        raise ArgumentError(f"expected {tm.num_leaves} leaf values")
    if not np.isfinite(xi_leaf).all():
        raise ArgumentError("leaf values must be finite")
    return xi_leaf


def g_expectation(tm: TreeModel, xi_leaf, direction: str = "sup") -> GExpResult:
    """Backward recursion from the leaf values; direction "inf" flips the
    endpoint selection (used for the negation identity)."""
    xi_leaf = _leaf_array(tm, xi_leaf)
    if direction not in ("sup", "inf"):
        raise ArgumentError("direction must be 'sup' or 'inf'")
    y, _ = tm._sweep(xi_leaf, np.maximum if direction == "sup" else np.minimum)
    z = (y[1::2] - y[2::2]) / (2.0 * math.sqrt(tm.dt))
    return GExpResult(y=y, z=z)


class GexpCompareReport(NamedTuple):
    recursion: GExpResult
    gexp_cond: RandomVariable
    mmse: RandomVariable
    sup_diff: float
    estimator: EstimatorResult
    rho_root: float


def compare_gexp_mmse(
    tm: TreeModel,
    xi_leaf,
    level: int,
) -> GexpCompareReport:
    """Recursion values at a level versus the worst-case estimator there.

    The two disagree in general; the report carries the recursion, the
    sup-norm difference and the full estimator result for auditing. The
    estimator is solve_mmse on the tree's corner set, which it queries
    through the tree's support oracle instead of a corner matrix, under the
    solver's own constants (SADDLE_TOL, MAX_ADDITIONS). rho_root is E_c[xi]
    at the corner c that TreeModel.support(xi) returns, read off that
    corner's leaf law: it must equal the recursion's root, by a separate
    computation.
    """
    if not 0 <= level < tm.depth:
        raise ArgumentError(f"comparison level must lie in 0..{tm.depth - 1}")
    xi = RandomVariable(tm.space, xi_leaf)
    part = tm.level_partition(level)
    gres = g_expectation(tm, xi_leaf)
    gexp_cond = part.broadcast(gres.level_values(level))
    est = solve_mmse(tm, xi, part)
    sup_diff = float(np.max(np.abs(gexp_cond.values - est.eta_hat.values)))
    _, best = tm.support(xi.values)
    return GexpCompareReport(
        recursion=gres,
        gexp_cond=gexp_cond,
        mmse=est.eta_hat,
        sup_diff=sup_diff,
        estimator=est,
        rho_root=float(tm.rows([best])[0] @ xi.values),
    )
