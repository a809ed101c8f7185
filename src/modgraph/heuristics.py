"""Partition-construction heuristics: the linear-time Swap improvement of
the odd/even bisection, and planted-label partitions.

Vertex-index convention used throughout: the classical 1-based labels
1..n map to 0-based indices by subtracting 1.  The odd-label side is the
even 0-based indices; Swap's pair i (1-based) is the index pair
(2i-2, 2i-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _edge_blocks, EmptyGraphError, Graph, Partition

__all__ = [
    "SwapTrace",
    "TooSmallError",
    "KTooSmallError",
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
    t_values[i] > 0; t_star = sum |T_i|.  The returned bipartition's cut
    is m times one minus its coverage, which modularity_score counts.
    """

    k: int
    swaps: np.ndarray
    t_values: np.ndarray
    t_star: int

    def __post_init__(self):
        self.swaps.setflags(write=False)
        self.t_values.setflags(write=False)


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
    k = n // 6
    # Zones rise with the vertex index and every edge has u < v, so the
    # pool-to-probe edges are those of the rows u < 4k with 4k <= v < 6k,
    # and no edge runs from the probe set back into the pool.  The probe
    # side is v's parity; key 2(u - r0) + side counts both sides of a
    # block's rows in one bincount.
    lo, hi = g.edge_v.dtype.type(4 * k), g.edge_v.dtype.type(6 * k)  # no int64 copy
    cnt = np.zeros(8 * k, dtype=np.int64)
    for r0, counts, vb in _edge_blocks(g, int(g.indptr[4 * k])):
        probe = (vb >= lo) & (vb < hi)
        key = np.repeat(np.arange(0, 2 * counts.size, 2), counts)[probe]
        key += vb[probe] & 1
        cnt[2 * r0:2 * (r0 + counts.size)] += np.bincount(key, minlength=2 * counts.size)
    # cnt[i, j, s]: neighbours on probe side s of member j of pair i+1
    cnt = cnt.reshape(2 * k, 2, 2)
    t_values = (cnt[:, 0, 1] - cnt[:, 0, 0]) + (cnt[:, 1, 0] - cnt[:, 1, 1])
    swaps = t_values > 0

    side = (np.arange(n) % 2).astype(np.int8)
    a = np.arange(0, 4 * k, 2)
    side[a[swaps]] = 1
    side[a[swaps] + 1] = 0
    trace = SwapTrace(k=k, swaps=swaps, t_values=t_values,
                      t_star=int(np.abs(t_values).sum()))
    return Partition.from_labels(side), trace


def planted_partition(lg) -> Partition:
    """Partition by planted block label, balanced: isolated vertices are
    greedily reassigned to equalize part sizes (each isolated vertex, in
    ascending order, moves to the currently smallest part).  Non-isolated
    vertices never move, so the modularity score is that of the labels.
    """
    labels = np.asarray(lg.labels, dtype=np.int64).copy()
    isolated = np.flatnonzero(lg.graph.deg == 0)
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

