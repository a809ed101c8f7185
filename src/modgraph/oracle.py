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
one cached table (strings x vertex pairs), so a scan is one table
lookup, one matrix-vector product with the pair weights, a max and a
flatnonzero.  Table entries are 0 or 1 and the weights integers whose
absolute sum is checked to stay below 2^24, so every partial sum of the
float32 product is an exact integer.  The oracle takes at most
ORACLE_CAP non-isolated vertices.

Isolated vertices are excluded from the enumeration (shuffling them
between parts never changes the score) and re-attached as singletons in
the reported maximizers.  Empty graphs take the q* = 0 convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import (EmptyGraphError, Graph, Partition, TooLargeError,
                    _component_edges, connected_components, induced_subgraph)

__all__ = [
    "OracleResult",
    "RobustnessCheck",
    "COutOfRangeError",
    "exact_modularity",
    "resolution_limit_check",
    "optimal_connectivity_check",
    "robustness_check",
    "solve_dual",
]

ORACLE_CAP = 10
# float32 holds every integer of smaller magnitude exactly.
_F32_EXACT = 1 << 24


class COutOfRangeError(ValueError):
    """solve_dual needs c > 1."""


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum score (q*, or q_{<=k} under a block cap), every
    maximizer (isolated vertices appended as singletons; built from the
    scan's label rows on first access, so a caller that reads only q_star
    builds no Partition), and the partitions scanned."""

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


@dataclass(frozen=True)
class RobustnessCheck:
    delta: Fraction
    bound: Fraction
    ok: bool


@functools.lru_cache(maxsize=None)
def _pairs(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs i < j of s vertices in the table's column order."""
    iu, ju = np.triu_indices(s, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


# Cached for the life of the process.  The largest table, 10 vertices
# with no block cap, has Bell(10) = 115975 rows over 45 pairs: 21 MB.
# All 55 (s, cap) shapes up to ORACLE_CAP vertices take about 149 MiB.
@functools.lru_cache(maxsize=None)
def _table(s: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every restricted-growth string of s vertices with at most cap
    blocks, in lexicographic order: the labels (int8, one row per string)
    and the float32 same-block table over the pairs in _pairs(s) order."""
    labels = np.zeros((1, 0), dtype=np.int8)
    used = np.array([0])
    for _ in range(s):
        choices = np.minimum(used + 1, cap)
        parent = np.repeat(np.arange(used.size), choices)
        label = np.arange(parent.size) - np.repeat(np.cumsum(choices) - choices, choices)
        labels = np.column_stack((labels[parent], label.astype(np.int8)))
        used = np.maximum(used[parent], label + 1)
    iu, ju = _pairs(s)
    same = (labels[:, iu] == labels[:, ju]).astype(np.float32)
    labels.setflags(write=False)
    same.setflags(write=False)
    return labels, same


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
    eu, ev = index[g.edge_u], index[g.edge_v]
    w[eu, ev] += 4 * g.m
    w[ev, eu] += 4 * g.m
    np.fill_diagonal(w, 0)
    if int(np.abs(w).sum()) // 2 >= _F32_EXACT:
        raise TooLargeError("pair weights exceed the exact float32 range")
    labels, same = _table(nv, min(max_parts, nv))
    iu, ju = _pairs(nv)
    sums = same @ w[iu, ju].astype(np.float32)
    top = sums.max()
    return int(top) - int(d @ d), list(labels[np.flatnonzero(sums == top)]), sums.size


def _attach_isolated(g: Graph, active: np.ndarray, assign: np.ndarray) -> Partition:
    labels = np.full(g.n, -1, dtype=np.int64)
    labels[active] = assign
    isolated = np.flatnonzero(labels == -1)
    labels[isolated] = (int(assign.max()) + 1 if assign.size else 0) + np.arange(isolated.size)
    return Partition.from_labels(labels)


def exact_modularity(g: Graph, *, max_parts: int | None = None) -> OracleResult:
    """q*(G) with every maximizer, by exhaustive enumeration over the
    non-isolated vertices (at most ORACLE_CAP of them); with max_parts=k,
    the same for q_{<=k}(G), the maximum over partitions of at most k
    parts (isolated vertices, re-attached as singletons, do not count)."""
    if g.n < 1:
        raise ValueError("graph needs at least one vertex")
    if max_parts is not None and max_parts < 1:
        raise ValueError("max_parts must be >= 1")
    active = np.flatnonzero(g.deg > 0)
    if active.size > ORACLE_CAP:
        raise TooLargeError(
            f"{active.size} non-isolated vertices exceed the oracle cap {ORACLE_CAP}")
    if g.m == 0:  # no active vertex: the one empty string gives singletons
        return OracleResult(Fraction(0), 0, g, active, [np.zeros(0, dtype=np.int8)])
    best_num, best, scanned = _scan_partitions(g, active, max_parts or active.size)
    return OracleResult(Fraction(best_num, 4 * g.m * g.m), scanned, g, active, best)


def resolution_limit_check(g: Graph) -> bool:
    """True iff every component with fewer than sqrt(2m) edges sits inside
    one part of every optimal partition.  This is the resolution-limit
    property of optimal partitions, so it always holds; the predicate
    exists as an oracle cross-check."""
    if g.m == 0:
        raise EmptyGraphError("resolution limit needs at least one edge")
    result = exact_modularity(g)
    comps = connected_components(g)
    edges = _component_edges(g, comps)
    small = [np.flatnonzero(comps.assign == c) for c in np.flatnonzero(edges ** 2 < 2 * g.m)]
    for part in result.optimal_partitions:
        for members in small:
            ids = part.assign[members]
            if ids.size and (ids != ids[0]).any():
                return False
    return True


def optimal_connectivity_check(g: Graph) -> bool:
    """True iff in every optimal partition each part induces a connected
    subgraph and has at least two vertices.  Both properties always hold
    for graphs without isolated vertices (splitting a disconnected part
    strictly lowers the degree tax), so the predicate is another oracle
    cross-check."""
    if g.m == 0:
        raise EmptyGraphError("connectivity check needs at least one edge")
    if g.has_isolated_vertices():
        raise ValueError("connectivity structure claims need no isolated vertices")
    result = exact_modularity(g)
    for part in result.optimal_partitions:
        for members in part.parts():
            if members.size < 2:
                return False
            if connected_components(induced_subgraph(g, members)).k != 1:
                return False
    return True


def robustness_check(g: Graph, g2: Graph) -> RobustnessCheck:
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
    delta = abs(exact_modularity(g).q_star - exact_modularity(g2).q_star)
    bound = Fraction(2 * len(e1 - e2), g.m)
    return RobustnessCheck(delta, bound, delta < bound)


def solve_dual(c: float) -> float:
    """The root x in (0, 1) of x e^{-x} = c e^{-c} for c > 1, by bisection
    on the increasing branch; residual <= 1e-12."""
    if not c > 1.0:
        raise COutOfRangeError("dual root needs c > 1")
    target = c * math.exp(-c)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
