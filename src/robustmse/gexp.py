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
tests compare with; no module calls it. Every leaf law (rows, mean_row, the
reference) is one product of per-node up-probabilities along the paths.

The estimator is the one query a tree answers otherwise than its corner set
would: block_solve, where a MeasureSet answers None. At a level partition
the blocks' subtrees are chosen apart, so the minimum worst-case error is
the sup recursion of each block's own minimum, a convex problem in one
variable solved by cutting planes on Python floats, with a recursion of its
own (_subtree_sweep), apart from the _sweep that the certificates read.
"""

from __future__ import annotations

import math
import sys
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import estimator
from .errors import ArgumentError, GuardRefusalError
from .estimator import EstimatorResult, solve_mmse
from .measures import BlockSolution, MeasureSet
from .spaces import Immutable, PartitionAlgebra, RandomVariable, SampleSpace, as_int

# corners x leaves: 2^24, 128 MiB as a float64 corner matrix. No request builds
# one, but p_hat's weights, the ties support lists and the rows a hull-test
# fallback reads (kernel_member's and ns_condition's LP) are dense over the corners
MAX_CORNER_ENTRIES = 2 ** 24
DEFAULT_DT = 0.25  # a tree's time step when none is given
_EPS = sys.float_info.epsilon  # of binary64


@cache
def _paths(depth: int) -> np.ndarray:
    """The row of [up; 1 - up] by which leaf j's path (columns) moves at depth d (rows):
    node 2^d - 1 + (j >> (depth - d)), in the second half where bit depth - 1 - d of j is 1."""
    d, leaves = np.arange(depth)[:, None], np.arange(2 ** depth)
    nodes, moves = (1 << d) - 1 + (leaves >> (depth - d)), (leaves >> (depth - 1 - d)) & 1
    columns = nodes + moves * (2**depth - 1)
    columns.flags.writeable = False
    return columns


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
        depth = as_int(depth, "tree depth")
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
        level = as_int(level, "level")
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
        before anything is allocated, when corners x leaves exceeds
        MAX_CORNER_ENTRIES (what stays dense over the corners, named in the
        message). With every node free that admits depth 4 (2^15 corners) and
        refuses depth 5 (2^31 corners). The count is written as a power of 2:
        from depth 14 its decimal digits pass int's string-conversion limit."""
        free = self._free_from[0]
        num_corners = 2**free
        if num_corners * self.num_leaves > MAX_CORNER_ENTRIES:
            raise GuardRefusalError(
                f"2^{free} corners x {self.num_leaves} leaves exceed the limit of "
                f"{MAX_CORNER_ENTRIES}: p_hat's weights, the listed ties and the rows "
                "a hull-test fallback reads are dense over the corners"
            )
        return num_corners

    def rows(self, ks) -> np.ndarray:
        """Leaf laws of corners ks: those rows of tree_measure_set(self).weights_matrix,
        bit for bit (the same products, divided by their sums as a MeasureSet's are)."""
        probs = self._corner_products(ks)
        return probs / np.add.reduce(probs, axis=1, keepdims=True)

    def _corner_products(self, ks) -> np.ndarray:
        """The leaf laws of corners ks before their sums are divided out. Node u takes
        q_hi where bit _free_from[u + 1] of the corner's index is set, as _corner reads
        it; an index is a Python int of any size, in 0..2^m - 1 for m free nodes."""
        m = self._free_from[0]
        ks = [k if type(k) is int else as_int(k, "corner index") for k in np.asarray(ks).tolist()]
        if ks and not 0 <= min(ks) <= max(ks) < 1 << m:
            raise ArgumentError(f"corner indices lie in 0..2^{m} - 1")
        size = m // 8 + 1  # bytes per index: bits 0..m, and bit m is 0
        raw = np.frombuffer(b"".join([k.to_bytes(size, "little") for k in ks]), np.uint8)
        bits = np.unpackbits(raw, bitorder="little").reshape(len(ks), 8 * size)
        return self._leaf_law(np.where(bits[:, self._free_from[1:]], self.q_hi, self.q_lo))

    def _leaf_law(self, up) -> np.ndarray:
        """Each leaf's probability under up-probabilities up, (nodes,) or (rows, nodes), from
        the root down, in C order (which fixes the order, so the bits, of rows' sums)."""
        up = up.T  # nodes first, so that the product runs over whole planes
        moves = np.concatenate([up, 1.0 - up])[_paths(self.depth)]
        return np.ascontiguousarray(np.multiply.reduce(moves, axis=0).T)

    def is_proper(self) -> bool:
        """Always: 0 < q_lo <= q_hi < 1 at every node, so every corner charges every leaf."""
        return True

    def mean_row(self) -> np.ndarray:
        """Leaf law of the uniform mixture of the corners: the midpoint tree, as
        each node is at q_lo or q_hi with probability 1/2, independently."""
        probs = self._leaf_law((self.q_lo + self.q_hi) / 2.0)
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

    def support(self, v, tie_tol: float) -> tuple[float, int, tuple[int, ...]]:
        """max over corners c of E_c[v], the smallest corner attaining it, and
        the near ties (_ties), from one sup sweep. The sup recursion is that
        maximum: the choices below a node do not depend on those elsewhere.
        Each node takes q_hi only where it is strictly better, so ties go to
        q_lo, the 0 bit, and the corner read off the choices is the smallest
        maximizing index. The ties can be every corner, so the corner count
        is checked first, unless tie_tol = -inf, which lists none."""
        if tie_tol != -math.inf:
            self.num_generators()
        y, ends = self._sweep(v, max)
        return y[0], self._corner(ends), self._ties(y, ends, tie_tol)

    def _corner(self, ends) -> int:
        """The index of the corner taking q_hi exactly where a sup sweep's
        endpoint values (a, b) have b > a."""
        return sum((b > a) << bit for (a, b), bit in zip(ends, self._free_from[1:]))

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

    def block_solve(self, x, c, p0) -> BlockSolution:
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
        sweep there (_subtree_sweep) gives f_B and the worst corner's parabola,
        which replaces the old one not on the minimum's far side. The two
        corners' mixture at the model's minimum has mean eta_B and variance
        the model's value: an exact two-corner master (von Hohenbalken 1977).
        A block stops when the sweep's corner is one of the two, or its value
        is within the rounding of the model: both are sums of terms up to
        4 R_B^2 (|d|, |e| <= R_B), formed in fewer than 8 (h + 2) rounded
        steps over a subtree of height h, so they differ by less than
        32 (h + 2) eps R_B^2, or once it has added estimator.MAX_ADDITIONS
        corners (read at call time): the cap is per block, so a solve adds at
        most MAX_ADDITIONS times the blocks. A block's first point is
        E_{p0}[xi | B], or its midpoint without p0.

        Above the level the same recursion, from the blocks' alpha_B, takes
        q_hi only where strictly better, which fixes P_hat there, and carries
        phi, E_P_hat of the blocks' mixture variances. Below, the blocks'
        mixtures are coupled comonotonically (_mixture), which gives at most
        one corner more than blocks.
        """
        level = self._level_of(c)
        nodes, bit, x = self._nodes, self._free_from[1:], self._leaves(x)
        height, first = self.depth - level, 2**level - 1
        size = 2**height
        p0 = None if p0 is None else p0.tolist()
        cap = estimator.MAX_ADDITIONS
        eta, alphas, variances, picks, used = [], [], [], [], 0
        for start in range(0, len(x), size):
            block = x[start : start + size]
            hi, lo = max(block), min(block)
            half, centre = hi / 2.0 - lo / 2.0, lo / 2.0 + hi / 2.0
            d = [v - centre for v in block]
            w = None if p0 is None else p0[start : start + size]
            e = 0.0 if w is None else sum(p * v for p, v in zip(w, d)) / sum(w)
            tol = 32 * (height + 2) * _EPS * half * half
            node, base = first + start // size, len(nodes) + start

            def sweep(e):  # f_B(e) and the worst corner's parabola: m, v, index bits
                f, m, k = _subtree_sweep(nodes, bit, base, [(v - e) * (v - e) for v in d], d, node)
                return f, (m, f - (m - e) ** 2, k)

            lines, added = [sweep(e)[1]], 0
            while True:
                e, lam = _master(lines)
                f, line = sweep(e)
                model = max((e - m) ** 2 + v for m, v, _ in lines)
                if f - model <= tol or line[2] in [k for *_, k in lines] or added == cap:
                    break
                added += 1
                active = [old for old, w in zip(lines, (lam, 1.0 - lam)) if w > 0.0]
                lines = [min(active) if line[0] > e else max(active), line]
            (m1, v1, k1), (m2, v2, k2) = lines[0], lines[-1]
            eta.append(centre + e)
            alphas.append(f)
            variances.append(lam * v1 + (1.0 - lam) * v2 + lam * (1.0 - lam) * (m1 - m2) ** 2)
            picks.append((lam, k1, k2))
            used += added
        alpha, phi, above = _subtree_sweep(nodes, bit, first, alphas, variances, 0)
        return eta, alpha, phi, _mixture(above, picks), used


def _subtree_sweep(nodes, bit, base, y, carry, u) -> tuple[float, float, int]:
    """The sup recursion from the values y at ids >= base (y[i] at id base + i) up to
    node u < base: the largest value over u's subtree's corners, that corner's carry and
    the index bits of its q_hi choices, each taken only where strictly better. y and carry
    are a block's squared residuals and leaf values, or the blocks' alpha_B and variances."""
    if u >= base:
        return y[u - base], carry[u - base], 0
    f_up, m_up, k_up = _subtree_sweep(nodes, bit, base, y, carry, 2 * u + 1)
    f_down, m_down, k_down = _subtree_sweep(nodes, bit, base, y, carry, 2 * u + 2)
    q, down, q_hi, down_hi = nodes[u]
    a, b = q * f_up + down * f_down, q_hi * f_up + down_hi * f_down
    if b > a:
        return b, q_hi * m_up + down_hi * m_down, k_up | k_down | 1 << bit[u]
    return a, q * m_up + down * m_down, k_up | k_down


def _mixture(above, picks) -> dict[int, float]:
    """P_hat's weights by corner, in the order of t in [0, 1): the bits above the level,
    and block B's corner k1 where t < lam_B, else k2 (its mixture (lam, k1, k2)). At each
    cut, a lam in (0, 1) in sorted order, its blocks swap k1 for k2 by XOR (disjoint bits)."""
    k = above | sum(k1 if 0.0 < lam else k2 for lam, k1, k2 in picks)
    mixture, t = {}, 0.0
    for lam, swap in sorted((lam, k1 ^ k2) for lam, k1, k2 in picks if 0.0 < lam < 1.0):
        if lam > t:
            mixture[k] = mixture.get(k, 0.0) + (lam - t)
            t = lam
        k ^= swap
    mixture[k] = mixture.get(k, 0.0) + (1.0 - t)
    return mixture


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
    return MeasureSet.from_matrix(tm.space, tm._corner_products(range(tm.num_generators())))


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
    level = as_int(level, "level")
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
    the solver's own constants (SADDLE_TOL, MAX_ADDITIONS). The rest of the
    report is gexp_comparison's.
    """
    level = _comparison_level(tm, level)
    xi = RandomVariable(tm.space, xi_leaf)
    return gexp_comparison(tm, xi, level, solve_mmse(tm, xi, tm.level_partition(level)))


def gexp_comparison(
    tm: TreeModel, xi: RandomVariable, level: int, est: EstimatorResult
) -> GexpCompareReport:
    """compare_gexp_mmse's report, with est, solve_mmse(tm, xi,
    tm.level_partition(level)), solved already: a caller that holds the
    estimate does not solve it again. One sup sweep gives the recursion and
    the corner c that TreeModel.support(xi, -inf) returns; rho_root is
    E_c[xi], read off that corner's leaf law: it must equal the recursion's
    root, by a separate computation.
    """
    level = _comparison_level(tm, level)
    y, ends = tm._sweep(xi.values, max)
    gres, best = _recursion(tm, y), tm._corner(ends)
    gexp_cond = tm.level_partition(level).broadcast(gres.level_values(level))
    sup_diff = float(np.max(np.abs(gexp_cond.values - est.eta_hat.values)))
    return GexpCompareReport(
        recursion=gres,
        gexp_cond=gexp_cond,
        mmse=est.eta_hat,
        sup_diff=sup_diff,
        estimator=est,
        rho_root=float(tm.rows([best])[0] @ xi.values),
    )


def _comparison_level(tm: TreeModel, level) -> int:
    level = as_int(level, "comparison level")
    if not 0 <= level < tm.depth:
        raise ArgumentError(f"comparison level must lie in 0..{tm.depth - 1}")
    return level
