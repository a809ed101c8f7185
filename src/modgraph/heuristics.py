"""Partition-construction heuristics: odd/even bisection, the linear-time
Swap improvement, and planted-label partitions.

Vertex-index convention used throughout: the classical 1-based labels
1..n map to 0-based indices by subtracting 1.  The odd-label side is the
even 0-based indices; Swap's pair i (1-based) is the index pair
(2i-2, 2i-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import EmptyGraphError, Graph, Partition

__all__ = [
    "SwapTrace",
    "TooSmallError",
    "KTooSmallError",
    "odd_even_bisection",
    "swap_zones",
    "swap_bisection",
    "planted_partition",
    "f_k",
]


class TooSmallError(ValueError):
    """Graph below the minimum size the construction needs."""


class KTooSmallError(ValueError):
    """f(k) is only defined for k >= 2."""


@dataclass(frozen=True)
class SwapTrace:
    """Full record of one Swap run.

    swaps[i] is True iff pair i+1 was swapped, which happens exactly when
    t_values[i] > 0; t_star = sum |T_i|; final_cut = e(A', B') of the
    returned bipartition.
    """

    k: int
    swaps: np.ndarray
    t_values: np.ndarray
    t_star: int
    final_cut: int

    def __post_init__(self):
        self.swaps.setflags(write=False)
        self.t_values.setflags(write=False)


def odd_even_bisection(n: int) -> Partition:
    """Bipartition into odd vs even classical labels (even vs odd 0-based
    indices).  Part 0 contains vertex 0."""
    if n < 2:
        raise TooSmallError("bisection needs n >= 2")
    return Partition(np.arange(n, dtype=np.int64) % 2)


def swap_zones(n: int) -> tuple[int, np.ndarray]:
    """(k, zone) with k = floor(n/6); zone[v] is 0 on the first 4k vertices,
    1 on the next 2k, 2 on the at most 5 leftover vertices."""
    k = n // 6
    zone = np.full(n, 2, dtype=np.int8)
    zone[:4 * k] = 0
    zone[4 * k:6 * k] = 1
    return k, zone


def swap_bisection(g: Graph) -> tuple[Partition, SwapTrace]:
    """Improve the odd/even bisection by swapping pairs between the sides.

    With k = floor(n/6), the first 4k vertices form the pool of pairs
    (a_i, b_i) = indices (2i-2, 2i-1), the next 2k vertices are the probe
    set, and at most 5 leftover vertices stay on their odd/even side.  For
    each pair,

        T_i = e(a_i, B1) - e(a_i, A1) + e(b_i, A1) - e(b_i, B1)

    counts only edges into the probe set (A1/B1 = its odd/even halves), and
    the pair is swapped iff T_i > 0 (ties stay put).  Runs in O(n + m).
    """
    n = g.n
    if n < 6:
        raise TooSmallError("swap bisection needs n >= 6")
    if g.m == 0:
        raise EmptyGraphError("swap bisection needs at least one edge")
    k, zone = swap_zones(n)
    side = (np.arange(n, dtype=np.int64) % 2).astype(np.int8)

    u, v = g.edge_u, g.edge_v
    zu, zv = zone[u], zone[v]
    m01 = (zu == 0) & (zv == 1)
    m10 = (zv == 0) & (zu == 1)
    pool = np.concatenate([u[m01], v[m10]])
    probe_side = side[np.concatenate([v[m01], u[m10]])]
    # per-pool-vertex counts of probe neighbours on each side
    cnt = [np.bincount(pool[probe_side == s], minlength=4 * k) for s in (0, 1)]
    a = np.arange(0, 4 * k, 2)
    b = a + 1
    t_values = (cnt[1][a] - cnt[0][a]) + (cnt[0][b] - cnt[1][b])
    swaps = t_values > 0

    new_side = side.copy()
    new_side[a[swaps]] = 1
    new_side[b[swaps]] = 0
    final_cut = int(np.count_nonzero(new_side[u] != new_side[v]))
    trace = SwapTrace(k=k, swaps=swaps, t_values=t_values,
                      t_star=int(np.abs(t_values).sum()), final_cut=final_cut)
    return Partition.from_labels(new_side), trace


def planted_partition(lg, balance: bool = False) -> Partition:
    """Partition by planted block label.

    With balance set, isolated vertices are greedily reassigned to equalize
    part sizes (each isolated vertex, in ascending order, moves to the
    currently smallest part); non-isolated vertices never move, so the
    modularity score is identical either way.
    """
    labels = np.asarray(lg.labels, dtype=np.int64).copy()
    if not balance:
        return Partition.from_labels(labels)
    g = lg.graph
    isolated = np.flatnonzero(g.deg == 0)
    sizes = np.bincount(labels, minlength=lg.k).astype(np.int64)
    for vtx in isolated:
        sizes[labels[vtx]] -= 1
    for vtx in isolated:
        target = int(np.argmin(sizes))
        labels[vtx] = target
        sizes[target] += 1
    return Partition.from_labels(labels)


def f_k(k: int) -> float:
    """Balanced k-part score constant: 1/2 for k = 2, else
    sqrt(2(k-1)ln(k-1))/k."""
    if k < 2:
        raise KTooSmallError("f(k) needs k >= 2")
    if k == 2:
        return 0.5
    return math.sqrt(2.0 * (k - 1) * math.log(k - 1)) / k

