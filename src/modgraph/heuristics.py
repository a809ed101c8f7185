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

from .graph import _blocks, _take, EmptyGraphError, Graph, Partition

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
    u, v = g.edge_u, g.edge_v
    # Zones rise with the vertex index and every edge has u < v, so the
    # pool-to-probe edges are those of the prefix u < 4k with 4k <= v < 6k,
    # and no edge runs from the probe set back into the pool.  The probe
    # side is v's parity; key 2u + side counts both sides in one bincount.
    lo, hi = v.dtype.type(4 * k), v.dtype.type(6 * k)  # same dtype: no int64 copy
    cnt = np.zeros(8 * k, dtype=np.int64)
    for blk in _blocks(int(np.searchsorted(u, lo))):
        ub, vb = u[blk], v[blk]
        probe = (vb >= lo) & (vb < hi)
        key = ub[probe].astype(np.intp)
        key *= 2
        key += vb[probe] & 1
        cnt += np.bincount(key, minlength=8 * k)
    # cnt[i, j, s]: neighbours on probe side s of member j of pair i+1
    cnt = cnt.reshape(2 * k, 2, 2)
    t_values = (cnt[:, 0, 1] - cnt[:, 0, 0]) + (cnt[:, 1, 0] - cnt[:, 1, 1])
    swaps = t_values > 0

    side = (np.arange(n) % 2).astype(np.int8)
    a = np.arange(0, 4 * k, 2)
    side[a[swaps]] = 1
    side[a[swaps] + 1] = 0
    final_cut = sum(int(np.count_nonzero(_take(side, u[blk]) != _take(side, v[blk])))
                    for blk in _blocks(g.m))
    trace = SwapTrace(k=k, swaps=swaps, t_values=t_values,
                      t_star=int(np.abs(t_values).sum()), final_cut=final_cut)
    return Partition.from_labels(side), trace


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

