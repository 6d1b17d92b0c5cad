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
endpoint at every node. TreeModel answers the corner set's queries
(measures.SetQueries) that way, in O(2^T) per query, so no reader of the set
enumerates the corners. tree_measure_set, which does, is the reference the
tests compare with; no module calls it.

The estimator is the one query a tree answers otherwise than its corner set
would: block_solve, where a MeasureSet answers None. At a level partition
the blocks' subtrees are chosen apart, so the minimum worst-case error is
the sup recursion of each block's own minimum, a convex problem in one
variable solved by cutting planes on Python floats.
"""

from __future__ import annotations

import math
import sys
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, GuardRefusalError
from .estimator import EstimatorResult, solve_mmse
from .measures import BlockSolution, MeasureSet
from .spaces import Immutable, PartitionAlgebra, RandomVariable, SampleSpace

# corners x leaves: 2^24 float64 entries (128 MiB) as a corner matrix. No
# request builds one, but p_hat is dense over the corners, and extremes can
# list them all as ties, and rows can read them all for kernel_member's LP fallback
MAX_CORNER_ENTRIES = 2 ** 24
DEFAULT_DT = 0.25  # a tree's time step when none is given
_EPS = sys.float_info.epsilon  # of binary64


@cache
def _paths(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(node, move) at each depth d (rows) of the path to each leaf j (columns):
    node 2^d - 1 + (j >> (depth - d)), and bit depth - 1 - d of j, 0 = up."""
    d, leaves = np.arange(depth)[:, None], np.arange(2 ** depth)
    nodes, moves = (1 << d) - 1 + (leaves >> (depth - d)), (leaves >> (depth - 1 - d)) & 1
    nodes.flags.writeable = moves.flags.writeable = False
    return nodes, moves


# What the depth alone fixes is built once per depth, as _paths is: the
# leaf-path labels and the level partitions are immutable, so every tree of
# one depth shares them, and a request does not rebuild them.
@cache
def _space(depth: int) -> SampleSpace:
    """The depth-`depth` leaf paths, "u" for an up move and "d" for a down one."""
    paths = (format(leaf, f"0{depth}b") for leaf in range(2**depth))
    return SampleSpace(tuple(p.replace("0", "u").replace("1", "d") for p in paths))


@cache
def _level_partition(depth: int, level: int) -> PartitionAlgebra:
    size = 2 ** (depth - level)
    return PartitionAlgebra(_space(depth), [range(b, b + size) for b in range(0, 2**depth, size)])


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
        bounds = np.empty((2, 2 ** depth - 1))  # q_lo and q_hi, each broadcast over the nodes
        for row, name, q in zip(bounds, ("q_lo", "q_hi"), (q_lo, q_hi)):
            try:
                row[...] = np.asarray(q, dtype=float)
            except (TypeError, ValueError, OverflowError):  # not floats, or the wrong count
                raise ArgumentError(
                    f"{name} must be one number or {len(row)} numbers, one per internal node"
                ) from None
        bounds.flags.writeable = False  # and so its rows
        q_lo, q_hi = bounds
        if not ((0 < q_lo) & (q_lo <= q_hi) & (q_hi < 1)).all():  # also refuses NaN
            raise ArgumentError("need 0 < q_lo <= q_hi < 1 at every node")
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

    @property
    def space(self) -> SampleSpace:
        """The leaves labeled by their paths; one object per depth (_space)."""
        return _space(self.depth)

    def level_partition(self, level: int) -> PartitionAlgebra:
        """Leaves grouped by their first `level` moves: in the heap order, runs
        of 2^(depth - level) consecutive leaves. One object per depth and
        level (_level_partition)."""
        if not 0 <= level <= self.depth:
            raise ArgumentError(f"level must lie in 0..{self.depth}")
        return _level_partition(self.depth, level)

    # --- the corner set, queried without enumerating it -------------------

    @cached_property
    def _free_from(self) -> list[int]:
        """How many free nodes (q_lo < q_hi) have id u or more, u = 0 .. num_internal."""
        counts = [0]
        for q_lo, _, q_hi, _ in reversed(self._nodes):
            counts.append(counts[-1] + (q_lo != q_hi))
        return counts[::-1]

    def num_generators(self) -> int:
        """The number of corners, the set's generators; GuardRefusalError,
        before anything is allocated, when the corner matrix would exceed
        MAX_CORNER_ENTRIES float64 entries. With every node free that admits
        depth 4 (2^15 corners) and refuses depth 5 (2^31 corners). The count
        is written as a power of 2: from depth 14 its decimal digits pass
        int's string-conversion limit."""
        free = self._free_from[0]
        num_corners = 2**free
        if num_corners * self.num_leaves > MAX_CORNER_ENTRIES:
            raise GuardRefusalError(
                f"2^{free} corners x {self.num_leaves} leaves exceed the limit of "
                f"{MAX_CORNER_ENTRIES} corner-matrix entries (128 MiB)"
            )
        return num_corners

    def _leaf_products(self, corners) -> np.ndarray:
        """Leaf probabilities of corners, one row each: the moves along each
        path, multiplied from the root down. The bits of a corner's index,
        read from the highest, choose q_hi at the free nodes in id order."""
        bits, lo, hi = self._path_moves
        high = (np.asarray(corners, dtype=np.int64)[:, None] & bits).astype(bool)
        return np.multiply.reduce(np.where(high, hi, lo), axis=0)

    @cached_property
    def _path_moves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Along each path (_paths), shape (depth, 1, leaves): the index bit each
        node reads (0 if fixed), and the move's probability at q_lo and q_hi."""
        nodes, moves = _paths(self.depth)
        free_from = self._free_from
        bits = np.array([(a - b) << b for a, b in zip(free_from, free_from[1:])])
        q = np.array([self.q_lo, self.q_hi])[:, nodes]
        tables = (bits[nodes][:, None], *np.where(moves, 1.0 - q, q)[:, :, None])
        for table in tables:
            table.flags.writeable = False
        return tables

    def rows(self, ks) -> np.ndarray:
        """Leaf laws of corners ks: those rows of tree_measure_set(self).weights_matrix,
        bit for bit (the same products, divided by their sums as a MeasureSet's are)."""
        probs = self._leaf_products(ks)
        return probs / np.add.reduce(probs, axis=1, keepdims=True)

    def is_proper(self) -> bool:
        """Always: 0 < q_lo <= q_hi < 1 at every node, so every corner charges every leaf."""
        return True

    def mean_row(self) -> np.ndarray:
        """Leaf law of the uniform mixture of the corners: the midpoint tree, as
        each node is at q_lo or q_hi with probability 1/2, independently."""
        nodes, moves = _paths(self.depth)
        up = ((self.q_lo + self.q_hi) / 2.0)[nodes]
        probs = np.multiply.reduce(np.where(moves, 1.0 - up, up), axis=0)
        return probs / probs.sum()

    @cached_property
    def _nodes(self) -> list[tuple[float, float, float, float]]:
        """Per internal node, as Python floats: q_lo, 1 - q_lo, q_hi, 1 - q_hi."""
        return [(a, 1.0 - a, b, 1.0 - b) for a, b in zip(self.q_lo.tolist(), self.q_hi.tolist())]

    def _leaves(self, v) -> list[float]:
        """v as Python floats, one per leaf: the check of every query that
        takes leaf values, which refuses any other shape (ArgumentError)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_leaves,):
            raise ArgumentError(
                f"expected a vector of 2^{self.depth} = {self.num_leaves} leaf values, "
                f"got shape {v.shape}"
            )
        return v.tolist()

    def _level_of(self, c: PartitionAlgebra) -> int:
        """The level whose partition c is (ArgumentError for any other partition):
        level l puts leaf i in block i >> (depth - l). The cached partition of
        that level, which every command passes, is recognized by identity."""
        level, depth = c.num_blocks.bit_length() - 1, self.depth
        if level <= depth and (
            c is _level_partition(depth, level)
            or np.array_equal(c.labels, np.arange(self.num_leaves) >> (depth - level))
        ):
            return level
        raise ArgumentError("a tree is conditioned at its level partitions only")

    def _sweep(self, v, pick) -> tuple[list[float], list[tuple[float, float]]]:
        """Backward recursion on leaf values v: y at every node, and at each
        internal node the values (a, b) of its q_lo and q_hi endpoints over the
        children's y; y = pick(a, b), pick being max or min (a on a tie). Node
        by node over Python floats, which beats level-wide arrays to depth 5."""
        nodes = self._nodes
        y = [0.0] * len(nodes) + self._leaves(v)
        ends = [(0.0, 0.0)] * len(nodes)
        for u in range(len(nodes) - 1, -1, -1):
            q, down, q_hi, down_hi = nodes[u]
            up_y, down_y = y[2 * u + 1], y[2 * u + 2]
            a, b = ends[u] = q * up_y + down * down_y, q_hi * up_y + down_hi * down_y
            y[u] = pick(a, b)
        return y, ends

    def support(self, v) -> tuple[float, int]:
        """max over corners c of E_c[v], and the smallest corner attaining it.

        The sup recursion is that maximum: the choices below a node do not
        depend on those elsewhere. Each node takes q_hi only where it is
        strictly better, so ties go to q_lo, the 0 bit, and the corner read
        off the choices is the smallest maximizing index.
        """
        y, ends = self._sweep(v, max)
        return y[0], self._corner(ends)

    def _corner(self, ends) -> int:
        """The index of the corner taking q_hi exactly where a sup sweep's
        endpoint values (a, b) have b > a."""
        return sum((b > a) << bit for (a, b), bit in zip(ends, self._free_from[1:]))

    def extremes(self, v, tie_tol: float) -> tuple[float, int, tuple[int, ...], float]:
        """support's answer and the near ties from one sup sweep and its walk
        (_ties), and the minimum from one inf sweep. The ties can be every
        corner, so the corner count is checked first."""
        self.num_generators()
        y, ends = self._sweep(v, max)
        return y[0], self._corner(ends), self._ties(y, ends, tie_tol), self._sweep(v, min)[0][0]

    def _ties(self, y, ends, tie_tol: float) -> tuple[int, ...]:
        """Every corner c with max_c' E_c'[v] - E_c[v] <= tie_tol, in index
        order, from a sup sweep's node values y and endpoint values ends.

        With y the recursion's values and Q(u, c_u) the value of c's endpoint
        at u over the children's y, c falls short by the sum over nodes u of
        reach_c(u) * (y(u) - Q(u, c_u)), reach_c(u) being the probability under
        c of passing through u. Every term is >= 0, so the walk extends partial
        corners node by node in id order, depth first with q_lo before q_hi
        (the bit order of the index), and drops one whose partial sum exceeds
        tie_tol. A later term is at most its node's larger shortfall (reach
        <= 1), so a partial total within cut[u], tie_tol less the sum of those
        from node u on and a margin for the rounding of the rest of the sums,
        keeps every completion within tie_tol: they are listed at once.
        No corner is within tie_tol = -inf, so that lists none without a walk.
        """
        if tie_tol == -math.inf:
            return ()
        nodes, free_from = self._nodes, self._free_from
        cut, tail = [0.0] * (len(nodes) + 1), 0.0
        for u in range(len(nodes), -1, -1):  # with no node left, cut is tie_tol
            margin = 4 * (len(nodes) - u) * math.ulp(1.0)
            cut[u] = tie_tol * (1.0 - margin) - tail * (1.0 + margin)
            tail += y[u - 1] - min(ends[u - 1]) if u else 0.0
        # reach[u] is set when u's parent chooses, and holds until the walk returns there
        reach, found, stack = [1.0] * len(nodes), [], []

        def extend(u, index, total):  # a partial corner chosen before node u
            if total <= cut[u]:
                found.extend(range(index, index + (1 << free_from[u])))
            else:  # its choices at u, q_hi (1) below q_lo (0) on the stack
                choices = range(free_from[u] - free_from[u + 1], -1, -1)
                stack.extend((u, c, index, total) for c in choices)

        extend(0, 0, 0.0)
        while stack:
            u, c, index, total = stack.pop()
            total += reach[u] * (y[u] - ends[u][c])
            if total <= tie_tol:
                if 2 * u + 1 < len(nodes):
                    q, down = nodes[u][2 * c : 2 * c + 2]
                    reach[2 * u + 1], reach[2 * u + 2] = reach[u] * q, reach[u] * down
                extend(u + 1, index | c << free_from[u + 1], total)
        return tuple(found)

    def envelopes(self, v, algebras) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level partition (else ArgumentError), the smallest and largest
        conditional mean of v per block over the corners: one inf and one sup
        sweep, read at the blocks' nodes (a subtree's choices are its own)."""
        levels = [self._level_of(c) for c in algebras]
        lower, upper = (np.array(self._sweep(v, pick)[0]) for pick in (min, max))
        return [(_level(lower, lv), _level(upper, lv)) for lv in levels]

    def block_solve(self, x, c, p0, cap) -> BlockSolution:
        """The estimator at c, a level partition (else ArgumentError), block
        by block, with P_hat's weights by corner and the corners added.

        The corners choose each block B's subtree apart from every other node
        (the set is rectangular), so F(eta) is the sup recursion above the
        level of f_B(eta_B) = max over B's subtree corners c of
        E_c[(xi - eta_B)^2 | B] = (eta_B - m_c)^2 + v_c, with m_c and v_c
        xi's conditional mean and variance under c. The recursion increases
        in each f_B, so min F is the recursion of the blocks' own minima
        (Epstein & Schneider 2003). Each f_B is minimized by cutting planes in
        units centred on the block's midpoint: the model is the larger of two
        parabolas, minimized at a vertex or where they cross (_master), and a
        sweep there (_corner_sweep) gives f_B and the worst corner's parabola,
        which replaces the old one not on the minimum's far side. The two
        corners' mixture at the model's minimum has mean eta_B and variance
        the model's value: an exact two-corner master (von Hohenbalken 1977).
        A block stops when the sweep's corner is one of the two, or its value
        is within the rounding of the model: both are sums of terms up to
        4 R_B^2 (|d|, |e| <= R_B), formed in fewer than 8 (h + 2) rounded
        steps over a subtree of height h, so they differ by less than
        32 (h + 2) eps R_B^2. At most cap corners are added over all blocks.
        A block's first point is E_{p0}[xi | B], or its midpoint without p0.

        Above the level the recursion takes q_hi only where strictly better,
        which fixes P_hat there, and phi is E_P_hat of the blocks' mixture
        variances. Below, the blocks' mixtures are coupled comonotonically:
        at t in [0, 1) block B takes its first corner where t < lam_B, which
        gives at most one corner more than blocks.
        """
        level = self._level_of(c)
        nodes, bit, x = self._nodes, self._free_from[1:], self._leaves(x)
        height, first = self.depth - level, 2**level - 1
        size = 2**height
        p0 = None if p0 is None else p0.tolist()
        d, eta, alphas, variances, picks, used = [], [], [], [], [], 0
        for start in range(0, len(x), size):
            block = x[start : start + size]
            hi, lo = max(block), min(block)
            half, centre = hi / 2.0 - lo / 2.0, lo / 2.0 + hi / 2.0
            d += [v - centre for v in block]
            e = 0.0 if p0 is None else (
                sum(p * v for p, v in zip(p0[start : start + size], d[start:]))
                / sum(p0[start : start + size]))
            tol = 32 * (height + 2) * _EPS * half * half
            node = first + start // size

            def sweep(e):
                f, m, k = _corner_sweep(nodes, bit, d, node, e)
                return f, (m, f - (m - e) ** 2, k)  # the corner's parabola: m, v, index bits

            lines = [sweep(e)[1]]
            while True:
                e, lam = _master(lines)
                f, line = sweep(e)
                model = max((e - m) ** 2 + v for m, v, _ in lines)
                if f - model <= tol or line[2] in [k for *_, k in lines] or used == cap:
                    break
                used += 1
                active = [old for old, w in zip(lines, (lam, 1.0 - lam)) if w > 0.0]
                lines = [min(active) if line[0] > e else max(active), line]
            (m1, v1, k1), (m2, v2, k2) = lines[0], lines[-1]
            eta.append(centre + e)
            alphas.append(f)
            variances.append(lam * v1 + (1.0 - lam) * v2 + lam * (1.0 - lam) * (m1 - m2) ** 2)
            picks.append((lam, k1, k2))
        # the sup recursion above level l, and phi along its choices
        y, phi, above = [0.0] * first + alphas, [0.0] * first + variances, 0
        for u in range(first - 1, -1, -1):
            q, down, q_hi, down_hi = nodes[u]
            up_y, down_y = y[2 * u + 1], y[2 * u + 2]
            y[u], b = q * up_y + down * down_y, q_hi * up_y + down_hi * down_y
            if b > y[u]:
                y[u], q, down, above = b, q_hi, down_hi, above | 1 << bit[u]
            phi[u] = q * phi[2 * u + 1] + down * phi[2 * u + 2]
        cuts = [0.0, *sorted({lam for lam, _, _ in picks if 0.0 < lam < 1.0}), 1.0]
        mixture: dict[int, float] = {}
        for t, t_next in zip(cuts, cuts[1:]):
            k = above | sum(k1 if t < lam else k2 for lam, k1, k2 in picks)
            mixture[k] = mixture.get(k, 0.0) + (t_next - t)
        return eta, y[0], phi[0], mixture, used


def _corner_sweep(nodes, bit, d, u, e) -> tuple[float, float, int]:
    """At node u, over its subtree's corners c, the largest E_c[(d - e)^2 | u],
    with that corner's E_c[d | u] and the index bits of its q_hi choices:
    a recursion of its own, taking q_hi only where it is strictly better,
    as TreeModel.support does. d holds the leaf values."""
    if u >= len(nodes):
        r = d[u - len(nodes)] - e
        return r * r, d[u - len(nodes)], 0
    f_up, m_up, k_up = _corner_sweep(nodes, bit, d, 2 * u + 1, e)
    f_down, m_down, k_down = _corner_sweep(nodes, bit, d, 2 * u + 2, e)
    q, down, q_hi, down_hi = nodes[u]
    a, b = q * f_up + down * f_down, q_hi * f_up + down_hi * f_down
    if b > a:
        return b, q_hi * m_up + down_hi * m_down, k_up | k_down | 1 << bit[u]
    return a, q * m_up + down * m_down, k_up | k_down


def _master(lines) -> tuple[float, float]:
    """The minimizer e of max_i (e - m_i)^2 + v_i over one or two lines (m, v,
    bits), and the weight lam of the first at e (1 - lam of the second).
    With D(e) the first less the second, D(m1) = dv - dm and D(m2) = dv + dm
    (dv = v1 - v2, dm = (m1 - m2)^2): the first's vertex if D(m1) >= 0, the
    second's if D(m2) <= 0, else the crossing, where lam = D(m2) / (D(m2) -
    D(m1)) puts the mixture's mean at e. Parallel lines (m1 == m2) have
    D(m1) == D(m2), so they never cross."""
    (m1, v1, _), (m2, v2, _) = lines[0], lines[-1]
    dv, dm = v1 - v2, (m1 - m2) ** 2
    if dv >= dm:  # one line gives dv == dm == 0
        return m1, 1.0
    if dv <= -dm:
        return m2, 0.0
    lam = (dv + dm) / (2.0 * dm)
    return m2 + lam * (m1 - m2), lam


def tree_measure_set(tm: TreeModel) -> MeasureSet:
    """All corner measures (each node independently at q_lo or q_hi) as one
    MeasureSet: the reference that the tests and tools/solve_identity.py
    compare TreeModel's queries with; no command builds it. A node with
    q_lo == q_hi gives one choice, so m non-degenerate nodes give 2^m
    corners, indexed as TreeModel indexes them (its rows(ks) are these rows
    bit for bit), refused by num_generators before anything is allocated and
    never subsampled, which would change the represented set.
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


def g_expectation(tm: TreeModel, xi_leaf) -> GExpResult:
    """The sup recursion from the leaf values. The inf recursion is the tree's
    lower envelope (TreeModel.envelopes), and it equals -g_expectation(tm, -xi_leaf)."""
    xi_leaf = np.asarray(xi_leaf, dtype=float)
    if xi_leaf.shape != (tm.num_leaves,):
        raise ArgumentError(f"expected {tm.num_leaves} leaf values")
    if not np.isfinite(xi_leaf).all():
        raise ArgumentError("leaf values must be finite")
    return _recursion(tm, tm._sweep(xi_leaf, max)[0])


def _recursion(tm: TreeModel, y) -> GExpResult:
    """The GExpResult of a sweep's node values y."""
    y = np.array(y)
    return GExpResult(y=y, z=(y[1::2] - y[2::2]) / (2.0 * math.sqrt(tm.dt)))


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
    estimator is solve_mmse on the tree, which solves it block by block
    (TreeModel.block_solve: at the level, each block's one-variable minimax,
    composed by the same sup recursion) instead of on a corner matrix, under
    the solver's own constants (SADDLE_TOL, MAX_ADDITIONS). One sup sweep gives
    the recursion and the corner c that TreeModel.support(xi) returns; rho_root
    is E_c[xi], read off that corner's leaf law: it must equal the
    recursion's root, by a separate computation.
    """
    if not 0 <= level < tm.depth:
        raise ArgumentError(f"comparison level must lie in 0..{tm.depth - 1}")
    xi = RandomVariable(tm.space, xi_leaf)
    part = tm.level_partition(level)
    y, ends = tm._sweep(xi.values, max)
    gres, best = _recursion(tm, y), tm._corner(ends)
    gexp_cond = part.broadcast(gres.level_values(level))
    est = solve_mmse(tm, xi, part)
    sup_diff = float(np.max(np.abs(gexp_cond.values - est.eta_hat.values)))
    return GexpCompareReport(
        recursion=gres,
        gexp_cond=gexp_cond,
        mmse=est.eta_hat,
        sup_diff=sup_diff,
        estimator=est,
        rho_root=float(tm.rows([best])[0] @ xi.values),
    )
