"""Exact maximum modularity by exhaustive set-partition enumeration, with
the structure predicates and the robustness check that lean on it.

Scores are compared as exact integers: a partition of an m-edge graph
scores (4m * sum_A e(A) - sum_A vol(A)^2) / (4 m^2), so the numerator
decides maxima and ties with no rounding.  Expanding both sums over
vertex pairs makes the numerator linear in which pairs share a part:

    4m * sum_A e(A) - sum_A vol(A)^2 = sum_{i<j same part} w_ij - sum_i d_i^2,
    w_ij = 4m * A_ij - 2 d_i d_j.

Partitions are enumerated as restricted-growth strings in lexicographic
order, which fixes the order in which tied maximizers are reported.  The
same-part indicators of all strings of a vertex count and block cap form
one cached table (strings x vertex pairs), so a scan is one
matrix-vector product with the pair weights, a max and a flatnonzero.
Table entries are 0 or 1 and the weights integers whose absolute sum is
checked to stay below 2^24, so every partial sum of the float32 product
is an exact integer.

Above _TABLE_ROWS strings the scan walks prefixes in lexicographic order
instead, extending each until its completions fit one table.  Each block
of the prefix then acts as one virtual vertex with its own fixed label,
weighted to a suffix vertex by the sum over its members, so no table
grows with the Bell number of the vertex count.

Isolated vertices are excluded from the enumeration (shuffling them
between parts never changes the score) and re-attached as singletons in
the reported maximizers.  Empty graphs take the q* = 0 convention.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import (EmptyGraphError, Graph, Partition, connected_components,
                    induced_subgraph)
from .spectral import TooLargeError

__all__ = [
    "OracleResult",
    "RobustnessCheck",
    "COutOfRangeError",
    "exact_modularity",
    "exact_modularity_k",
    "resolution_limit_check",
    "optimal_connectivity_check",
    "robustness_check",
    "solve_dual",
]

ORACLE_CAP = 10
# Bell(10) = 115975 partitions still fit one table; from 11 vertices on
# the scan walks prefixes, and its cost keeps growing with the Bell
# numbers (12 vertices: Bell(12) = 4213597 partitions, about 0.3 s).
_WARN_ABOVE = 10
# Most partitions in one table: 10 vertices (45 pair columns) take one
# float32 table of 21 MB.
_TABLE_ROWS = 1 << 17
# float32 holds every integer of smaller magnitude exactly.
_F32_EXACT = 1 << 24


class COutOfRangeError(ValueError):
    """solve_dual needs c > 1."""


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum score, every maximizer (isolated vertices appended as
    singletons; built from the scan's label rows on first access, so a caller
    that reads only q_star builds no Partition), and the partitions scanned."""

    q_star: Fraction
    partitions_scanned: int
    _g: Graph = field(repr=False, compare=False)
    _active: np.ndarray = field(repr=False, compare=False)
    _rows: list[np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def optimal_partitions(self) -> tuple[Partition, ...]:
        return tuple(_attach_isolated(self._g, self._active, a) for a in self._rows)

    def __eq__(self, other):
        if not isinstance(other, OracleResult):
            return NotImplemented
        return ((self.q_star, self.partitions_scanned, self.optimal_partitions)
                == (other.q_star, other.partitions_scanned, other.optimal_partitions))

    @property
    def q_star_float(self) -> float:
        return float(self.q_star)


@dataclass(frozen=True)
class RobustnessCheck:
    delta: Fraction
    bound: Fraction
    ok: bool


@functools.lru_cache(maxsize=None)
def _completions(b: int, s: int, cap: int) -> int:
    """How many ways s more vertices extend a prefix that uses b blocks,
    with at most cap blocks in all."""
    if s == 0:
        return 1
    opened = _completions(b + 1, s - 1, cap) if b < cap else 0
    return b * _completions(b, s - 1, cap) + opened


@functools.lru_cache(maxsize=None)
def _pairs(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs i < j of s vertices in the table's column order."""
    iu, ju = np.triu_indices(s, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


# Cached for the life of the process: no table has more than _TABLE_ROWS
# rows, and a scan needs few shapes (full scans of 5 to 8 vertices take
# 0.6 MB of tables in all; a 12-vertex scan needs 7 shapes, 79 MB).
@functools.lru_cache(maxsize=None)
def _table(b: int, s: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every completion of a b-block prefix by s vertices with at most cap
    blocks, in lexicographic order: the suffix labels (int8, one row per
    completion) and the float32 same-block table.  Its columns are
    (suffix vertex t, prefix block j) at t * b + j, then the suffix pairs
    in _pairs(s) order."""
    labels = np.zeros((1, 0), dtype=np.int8)
    used = np.array([b])
    for _ in range(s):
        choices = np.minimum(used + 1, cap)
        parent = np.repeat(np.arange(used.size), choices)
        label = np.arange(parent.size) - np.repeat(np.cumsum(choices) - choices, choices)
        labels = np.column_stack((labels[parent], label.astype(np.int8)))
        used = np.maximum(used[parent], label + 1)
    iu, ju = _pairs(s)
    rows = labels.shape[0]
    same = np.empty((rows, s * b + iu.size), dtype=np.float32)
    same[:, :s * b] = (labels[:, :, None] == np.arange(b)).reshape(rows, s * b)
    same[:, s * b:] = labels[:, iu] == labels[:, ju]
    labels.setflags(write=False)
    same.setflags(write=False)
    return labels, same


def _prefixes(nv: int, cap: int, prefix: tuple[int, ...] = (), b: int = 0):
    """(prefix, blocks used) in lexicographic order, each extended until
    its completions fit one table; the empty prefix when all fit."""
    if _completions(b, nv - len(prefix), cap) <= _TABLE_ROWS:
        yield prefix, b
        return
    for label in range(min(b + 1, cap)):
        yield from _prefixes(nv, cap, prefix + (label,), max(b, label + 1))


def _scan_partitions(g: Graph, active: np.ndarray,
                     max_parts: int) -> tuple[int, list[np.ndarray], int]:
    """Exhaustive scan of the partitions of `active` with at most
    max_parts blocks; returns (best numerator, best label strings in
    lexicographic order, partitions scanned)."""
    nv = active.size
    index = np.zeros(g.n, dtype=np.intp)
    index[active] = np.arange(nv)
    d = g.deg[active]
    w = -2 * np.outer(d, d)
    w[index[g.edge_u], index[g.edge_v]] += 4 * g.m
    w[index[g.edge_v], index[g.edge_u]] += 4 * g.m
    np.fill_diagonal(w, 0)
    if int(np.abs(w).sum()) // 2 >= _F32_EXACT:
        raise TooLargeError("pair weights exceed the exact float32 range")
    best_num, best, scanned = -math.inf, [], 0
    for prefix, b in _prefixes(nv, max_parts):
        i = len(prefix)
        s = nv - i
        labels, same = _table(b, s, min(max_parts, b + s))
        iu, ju = _pairs(s)
        weights = w[i + iu, i + ju]
        fixed = 0
        if prefix:
            # block j of the prefix as one vertex: its weight to suffix
            # vertex t sums w over the members, and the prefix's own
            # same-block pairs add a constant
            onehot = np.equal.outer(np.arange(b), prefix).astype(np.int64)
            fixed = int(((onehot @ w[:i, :i]) * onehot).sum()) // 2
            weights = np.concatenate(((onehot @ w[:i, i:]).T.ravel(), weights))
        sums = same @ weights.astype(np.float32)
        scanned += sums.size
        top = sums.max()
        num = int(top) + fixed
        if num < best_num:
            continue
        if num > best_num:
            best_num, best = num, []
        rows = labels[np.flatnonzero(sums == top)]
        if prefix:
            head = np.broadcast_to(np.array(prefix, dtype=np.int8), (len(rows), i))
            rows = np.hstack((head, rows))
        best.extend(rows)
    return best_num - int(d @ d), best, scanned


def _oracle_pre(g: Graph, cap: int) -> np.ndarray:
    active = np.flatnonzero(g.deg > 0)
    if active.size > cap:
        raise TooLargeError(
            f"{active.size} non-isolated vertices exceed the oracle cap {cap}")
    if active.size > _WARN_ABOVE:
        warnings.warn(
            f"enumerating partitions of {active.size} vertices "
            f"(Bell numbers grow fast beyond {_WARN_ABOVE})", RuntimeWarning,
            stacklevel=3)
    return active


def _attach_isolated(g: Graph, active: np.ndarray, assign: np.ndarray) -> Partition:
    labels = np.full(g.n, -1, dtype=np.int64)
    labels[active] = assign
    isolated = np.flatnonzero(labels == -1)
    labels[isolated] = (int(assign.max()) + 1 if assign.size else 0) + np.arange(isolated.size)
    return Partition.from_labels(labels)


def exact_modularity(g: Graph, cap: int = ORACLE_CAP) -> OracleResult:
    """q*(G) with every maximizer, by exhaustive enumeration over the
    non-isolated vertices (at most `cap` of them)."""
    if g.n < 1:
        raise ValueError("graph needs at least one vertex")
    active = _oracle_pre(g, cap)
    if g.m == 0:  # no active vertex: the one empty string gives singletons
        return OracleResult(Fraction(0), 0, g, active, [np.zeros(0, dtype=np.int8)])
    best_num, best, scanned = _scan_partitions(g, active, max_parts=active.size)
    return OracleResult(Fraction(best_num, 4 * g.m * g.m), scanned, g, active, best)


def exact_modularity_k(g: Graph, k: int, cap: int = ORACLE_CAP) -> Fraction:
    """q_{<=k}(G): exact maximum over partitions with at most k parts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n < 1:
        raise ValueError("graph needs at least one vertex")
    active = _oracle_pre(g, cap)
    if g.m == 0:
        return Fraction(0)
    best_num, _, _ = _scan_partitions(g, active, max_parts=k)
    return Fraction(best_num, 4 * g.m * g.m)


def resolution_limit_check(g: Graph, cap: int = ORACLE_CAP) -> bool:
    """True iff every component with fewer than sqrt(2m) edges sits inside
    one part of every optimal partition.  This is the resolution-limit
    property of optimal partitions, so it always holds; the predicate
    exists as an oracle cross-check."""
    if g.m == 0:
        raise EmptyGraphError("resolution limit needs at least one edge")
    result = exact_modularity(g, cap=cap)
    comps = connected_components(g)
    comp_edges = np.bincount(comps.assign[g.edge_u], minlength=comps.k)
    small = [np.flatnonzero(comps.assign == c)
             for c in range(comps.k)
             if int(comp_edges[c]) ** 2 < 2 * g.m]
    for part in result.optimal_partitions:
        for members in small:
            ids = part.assign[members]
            if ids.size and (ids != ids[0]).any():
                return False
    return True


def optimal_connectivity_check(g: Graph, cap: int = ORACLE_CAP) -> bool:
    """True iff in every optimal partition each part induces a connected
    subgraph and has at least two vertices.  Both properties always hold
    for graphs without isolated vertices (splitting a disconnected part
    strictly lowers the degree tax), so the predicate is another oracle
    cross-check."""
    if g.m == 0:
        raise EmptyGraphError("connectivity check needs at least one edge")
    if g.has_isolated_vertices():
        raise ValueError("connectivity structure claims need no isolated vertices")
    result = exact_modularity(g, cap=cap)
    for part in result.optimal_partitions:
        for members in part.parts():
            if members.size < 2:
                return False
            if connected_components(induced_subgraph(g, members)).k != 1:
                return False
    return True


def robustness_check(g: Graph, g2: Graph, cap: int = ORACLE_CAP) -> RobustnessCheck:
    """|q*(G) - q*(G')| < 2 |E \\ E'| / |E| (strict) for graphs on one vertex
    set with |E| >= |E'|.  Deleting edges E0 is the case E' = E \\ E0;
    rewiring with equal edge counts has |E symm-diff E'| = 2 |E \\ E'|."""
    if g.n != g2.n:
        raise ValueError("graphs must share the vertex set")
    if g.m < g2.m:
        raise ValueError("expected |E| >= |E'|")
    if g.m == 0:
        raise EmptyGraphError("bound needs |E| >= 1")
    e1 = set(g.edge_list())
    e2 = set(g2.edge_list())
    if e1 == e2:
        raise ValueError("graphs must differ")
    delta = abs(exact_modularity(g, cap=cap).q_star - exact_modularity(g2, cap=cap).q_star)
    bound = Fraction(2 * len(e1 - e2), g.m)
    return RobustnessCheck(delta, bound, delta < bound)


def solve_dual(c: float, tol: float = 1e-14) -> float:
    """The root x in (0, 1) of x e^{-x} = c e^{-c} for c > 1, by bisection
    on the increasing branch; residual <= 1e-12."""
    if not c > 1.0:
        raise COutOfRangeError("dual root needs c > 1")
    target = c * math.exp(-c)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
