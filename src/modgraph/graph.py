"""Immutable simple graphs, vertex partitions, and exact modularity scoring.

The modularity score of a partition splits into an edge contribution
(coverage, the fraction of edges inside parts) minus a degree tax
(sum of squared part volumes over (2m)^2).  Both pieces are accumulated
as 64-bit integer counts; only the final divisions are floating point,
so a score is exact up to one rounding per division.

Vertices are labelled 0..n-1.  Graphs and partitions never mutate after
construction, so they are safe to share across threads and every
operation in this module is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Partition",
    "ModularityBreakdown",
    "EmptyGraphError",
    "InvalidPartitionError",
    "EdgeListFormatError",
    "modularity_score",
    "modularity_exact",
    "connected_components",
    "induced_subgraph",
    "strip_isolated",
    "read_edgelist",
    "write_edgelist",
    "read_partition",
    "write_partition",
]


class EmptyGraphError(ValueError):
    """Raised when an operation needs at least one edge."""


class InvalidPartitionError(ValueError):
    """Raised when a partition does not satisfy an operation's precondition."""


class EdgeListFormatError(ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Edges per block of an O(m) pass: its temporaries stay near cache size
# instead of growing with m.
_BLOCK = 1 << 16


def _blocks(size: int, step: int = _BLOCK) -> Iterator[slice]:
    """Slices of at most `step` items covering range(size) in order."""
    return (slice(lo, min(lo + step, size)) for lo in range(0, size, step))


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[index] for an index already known to lie in range, such as a
    block of edge endpoints.  Fancy indexing first converts an int32 index
    to intp; take in 'wrap' mode (a no-op in range) does not, and gathers
    a block in about half the time."""
    return np.take(values, index, mode="wrap")


# Volumes are at most 2m; their squares must stay inside int64.
_VOL_INT64_SAFE = 3_037_000_499  # isqrt(2**63 - 1)


def _sum_sq(values: np.ndarray) -> int:
    """Exact sum of squares of non-negative int64 values."""
    if values.size == 0:
        return 0
    if int(values.max()) <= _VOL_INT64_SAFE:
        return int(np.dot(values, values))
    # absurdly dense graph: fall back to arbitrary precision
    return sum(int(v) * int(v) for v in values.tolist())


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges.

    Edges are stored as two sorted arrays (edge_u[i] < edge_v[i], pairs in
    lexicographic order) plus per-vertex degrees derived from them; the
    adjacency CSR is built lazily.  This layout keeps scoring cache-friendly
    up to n ~ 1e6.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        self._init_from_arrays(int(n), u, v, presorted=False)

    @classmethod
    def from_arrays(cls, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                    presorted: bool = False, _trusted: bool = False) -> "Graph":
        """Fast path for generators: requires edge_u[i] < edge_v[i] already.

        _trusted skips the sortedness/duplicate scan; only callers that
        construct edges as strictly increasing pair indices may set it.
        """
        g = cls.__new__(cls)
        g._init_from_arrays(int(n), np.asarray(edge_u), np.asarray(edge_v),
                            presorted=presorted, trusted=_trusted)
        return g

    def _init_from_arrays(self, n: int, u: np.ndarray, v: np.ndarray,
                          presorted: bool, trusted: bool = False) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if u.shape != v.shape:
            raise ValueError("edge endpoint arrays differ in length")
        dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        if trusted:
            u = np.asarray(u, dtype=dtype)
            v = np.asarray(v, dtype=dtype)
        else:
            u = u.astype(dtype, copy=True)
            v = v.astype(dtype, copy=True)
        if u.size:
            if int(u.min()) < 0 or int(v.max()) >= n:
                raise ValueError("edge endpoint out of range")
            for blk in _blocks(u.size):
                if np.any(u[blk] >= v[blk]):
                    bad = blk.start + int(np.flatnonzero(u[blk] >= v[blk])[0])
                    if int(u[bad]) == int(v[bad]):
                        raise ValueError(f"self-loop at vertex {int(u[bad])}")
                    raise ValueError("edges must satisfy u < v")
            if not trusted:
                if not presorted:
                    order = np.lexsort((v, u))
                    u = u[order]
                    v = v[order]
                key = u.astype(np.int64) * n
                key += v
                if np.any(np.diff(key) <= 0):
                    if presorted:
                        raise ValueError("edge arrays are not sorted or contain duplicates")
                    raise ValueError("duplicate edge")
                del key
        u.setflags(write=False)
        v.setflags(write=False)
        # edge_u is sorted on every path here, so from 2 edges per vertex up
        # (where the two costs cross, as in the pair decoder) one search per
        # vertex counts it.  bincount casts its input to a full int64 copy;
        # blocks bound that copy, and at 8n edges or more they amortize each
        # call's O(n) counts
        if u.size >= 2 * n:
            deg = np.diff(np.searchsorted(u, np.arange(n + 1, dtype=u.dtype)))
            counted = (v,)
        else:
            deg = np.zeros(n, dtype=np.int64)
            counted = (u, v)
        for ends in counted:
            for blk in _blocks(ends.size, max(_BLOCK, 8 * n)):
                deg += np.bincount(ends[blk], minlength=n)
        deg.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", int(u.size))
        object.__setattr__(self, "edge_u", u)
        object.__setattr__(self, "edge_v", v)
        object.__setattr__(self, "deg", deg)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        # CSR over both edge directions; derived value, benign if two
        # threads race to fill the cache.
        srcs = np.concatenate([self.edge_u, self.edge_v])
        tgts = np.concatenate([self.edge_v, self.edge_u])
        order = np.argsort(srcs, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.deg, out=indptr[1:])
        return indptr, tgts[order]

    def neighbors(self, v: int) -> np.ndarray:
        indptr, nbrs = self._adjacency
        return nbrs[indptr[v]:indptr[v + 1]]

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors) CSR covering both directions of each edge."""
        return self._adjacency

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def has_isolated_vertices(self) -> bool:
        return self.n > 0 and bool((self.deg == 0).any())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and bool(np.array_equal(self.edge_u, other.edge_u))
                and bool(np.array_equal(self.edge_v, other.edge_v)))

    def __hash__(self):
        return hash((self.n, self.m, self.edge_u.tobytes(), self.edge_v.tobytes()))


class Partition:
    """Assignment of every vertex to one of k parts, ids contiguous 0..k-1.

    Empty parts are forbidden so k is well-defined; the check is O(n) (no
    sort).  Use from_labels to compress arbitrary labels (ids are then
    ordered by smallest contained vertex).
    """

    __slots__ = ("assign", "k")

    def __init__(self, assign: Sequence[int] | np.ndarray, k: int | None = None):
        arr = np.asarray(assign, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("assignment must be a non-empty vector")
        if int(arr.min()) < 0:
            raise InvalidPartitionError("negative part id")
        nk = int(arr.max()) + 1
        # more ids than vertices leaves a part empty; checked before bincount
        # allocates nk counters
        if nk > arr.size or not np.bincount(arr, minlength=nk).all():
            raise InvalidPartitionError("part ids must be contiguous (no empty parts)")
        if k is not None and k != nk:
            raise InvalidPartitionError(f"declared k={k} but assignment uses {nk} parts")
        arr = arr.astype(np.int32 if nk <= np.iinfo(np.int32).max else np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "assign", arr)
        object.__setattr__(self, "k", nk)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_labels(cls, labels: Sequence[int] | np.ndarray) -> "Partition":
        """Compress arbitrary labels to contiguous ids in first-appearance
        order, i.e. part ids ordered by smallest contained vertex.

        O(n) without a sort when the labels are integers in [0, n), as
        component labels, block labels and part ids are.  Any other labels
        (negative, >= n, float, bool, string) are first compressed to that
        range by one np.unique."""
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("assignment must be a non-empty vector")
        n = arr.size
        if not (arr.dtype.kind in "iu" and int(arr.min()) >= 0 and int(arr.max()) < n):
            arr = np.unique(arr, return_inverse=True)[1]
        # first[x]: the first position holding label x (n if none does)
        first = np.full(n, n, dtype=np.intp)
        np.minimum.at(first, arr, np.arange(n))
        opens = np.zeros(n, dtype=bool)
        opens[first[first < n]] = True
        # a label's id is the number of labels opened before its first position
        rank = np.cumsum(opens)
        rank -= 1
        return cls(rank[first[arr]])

    @classmethod
    def from_parts(cls, parts: Sequence[Sequence[int]], n: int) -> "Partition":
        assign = np.full(n, -1, dtype=np.int64)
        for i, part in enumerate(parts):
            for v in part:
                if assign[v] != -1:
                    raise InvalidPartitionError(f"vertex {v} listed twice")
                assign[v] = i
        if (assign == -1).any():
            missing = int(np.flatnonzero(assign == -1)[0])
            raise InvalidPartitionError(f"vertex {missing} not assigned")
        return cls.from_labels(assign)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.assign.size)

    def parts(self) -> list[np.ndarray]:
        order = np.argsort(self.assign, kind="stable")
        sizes = self.part_sizes()
        return np.split(order, np.cumsum(sizes)[:-1])

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.k)

    def part_volumes(self, g: Graph) -> np.ndarray:
        if g.n != self.n:
            raise InvalidPartitionError("partition size does not match graph")
        # float64 bincount is exact for integer sums below 2^53
        vols = np.bincount(self.assign, weights=g.deg, minlength=self.k)
        return vols.astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(np.array_equal(self.assign, other.assign))

    def __hash__(self):
        return hash(self.assign.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, k={self.k})"

    def canonical(self) -> "Partition":
        """Relabel to the canonical id order (smallest vertex first)."""
        return Partition.from_labels(self.assign)


@dataclass(frozen=True)
class ModularityBreakdown:
    """coverage - degree_tax = score; all three share one arithmetic path."""
    coverage: float
    degree_tax: float
    score: float


def _score_counts(g: Graph, p: Partition) -> tuple[int, int]:
    """Exact integer internals: (edges inside parts, sum of squared volumes)."""
    if p.n != g.n:
        raise InvalidPartitionError("partition size does not match graph")
    a, u, v = p.assign, g.edge_u, g.edge_v
    e_in = sum(int(np.count_nonzero(_take(a, u[blk]) == _take(a, v[blk])))
               for blk in _blocks(g.m))
    vols = p.part_volumes(g)
    return e_in, _sum_sq(vols)


def modularity_score(g: Graph, p: Partition) -> ModularityBreakdown:
    """Score a partition: coverage sum(e(A))/m minus degree tax
    sum(vol(A)^2)/(2m)^2.  Requires m >= 1."""
    if g.m == 0:
        raise EmptyGraphError("modularity score undefined for empty graphs")
    e_in, ssq = _score_counts(g, p)
    coverage = e_in / g.m
    degree_tax = ssq / (2.0 * g.m) / (2.0 * g.m)
    return ModularityBreakdown(coverage, degree_tax, coverage - degree_tax)


def modularity_exact(g: Graph, p: Partition) -> Fraction:
    """Score as an exact rational (denominator divides 4m^2)."""
    if g.m == 0:
        raise EmptyGraphError("modularity score undefined for empty graphs")
    e_in, ssq = _score_counts(g, p)
    return Fraction(4 * g.m * e_in - ssq, 4 * g.m * g.m)


def connected_components(g: Graph) -> Partition:
    """Partition into connected components, ids ordered by smallest vertex."""
    if g.n == 0:
        raise InvalidPartitionError("graph has no vertices")
    if g.m == 0:
        return Partition.singletons(g.n)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as _cc

    mat = csr_matrix((np.ones(g.m, dtype=np.int8), (g.edge_u, g.edge_v)),
                     shape=(g.n, g.n))
    _, labels = _cc(mat, directed=False)
    return Partition.from_labels(labels)


def induced_subgraph(g: Graph, vertices: Sequence[int] | np.ndarray) -> Graph:
    """Induced subgraph on the given vertices, re-indexed in ascending order
    of the original labels."""
    keep = np.unique(np.asarray(vertices, dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.n):
        raise ValueError("vertex out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[keep] = True
    sel = mask[g.edge_u] & mask[g.edge_v]
    new_id = np.cumsum(mask) - 1
    return Graph.from_arrays(int(keep.size),
                             new_id[g.edge_u[sel]], new_id[g.edge_v[sel]],
                             presorted=True)


def strip_isolated(g: Graph) -> tuple[Graph, np.ndarray]:
    """Drop isolated vertices; returns (subgraph, kept original indices)."""
    kept = np.flatnonzero(g.deg > 0)
    return induced_subgraph(g, kept), kept


def _open(path_or_file, mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def read_edgelist(path_or_file) -> Graph:
    """Parse the edge-list text format: first line "n m", then m lines
    "u v" with 0 <= u < v < n.  Duplicates and self-loops are rejected with
    the offending line number."""
    fh, close = _open(path_or_file, "r")
    try:
        header = fh.readline()
        fields = header.split()
        if len(fields) != 2:
            raise EdgeListFormatError(1, "expected header 'n m'")
        try:
            n, m = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListFormatError(1, "expected integer header 'n m'") from None
        if n < 0 or m < 0:
            raise EdgeListFormatError(1, "n and m must be non-negative")
        eu = np.empty(m, dtype=np.int64)
        ev = np.empty(m, dtype=np.int64)
        seen: dict[tuple[int, int], int] = {}
        for i in range(m):
            line_no = i + 2
            line = fh.readline()
            if not line:
                raise EdgeListFormatError(line_no, f"expected {m} edges, file ended early")
            fields = line.split()
            if len(fields) != 2:
                raise EdgeListFormatError(line_no, "expected 'u v'")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListFormatError(line_no, "expected integer endpoints") from None
            if u == v:
                raise EdgeListFormatError(line_no, f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise EdgeListFormatError(line_no, f"edge ({u}, {v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise EdgeListFormatError(
                    line_no, f"duplicate edge ({u}, {v}), first seen on line {seen[(u, v)]}")
            seen[(u, v)] = line_no
            eu[i] = u
            ev[i] = v
        return Graph.from_arrays(n, eu, ev, presorted=False)
    finally:
        if close:
            fh.close()


def write_edgelist(g: Graph, path_or_file) -> None:
    fh, close = _open(path_or_file, "w")
    try:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            fh.write(f"{u} {v}\n")
    finally:
        if close:
            fh.close()


def read_partition(path_or_file) -> Partition:
    """Parse the partition text format: first line "n k", then n part ids."""
    fh, close = _open(path_or_file, "r")
    try:
        fields = fh.readline().split()
        if len(fields) != 2:
            raise EdgeListFormatError(1, "expected header 'n k'")
        try:
            n, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListFormatError(1, "expected integer header 'n k'") from None
        if n < 0:
            raise EdgeListFormatError(1, "n must be non-negative")
        assign = np.empty(n, dtype=np.int64)
        for i in range(n):
            line = fh.readline()
            if not line:
                raise EdgeListFormatError(i + 2, "file ended early")
            try:
                assign[i] = int(line.split()[0])
            except (IndexError, ValueError):
                raise EdgeListFormatError(i + 2, "expected an integer part id") from None
        part = Partition(assign)
        if part.k != k:
            raise EdgeListFormatError(1, f"header declares k={k} but ids use {part.k} parts")
        return part
    finally:
        if close:
            fh.close()


def write_partition(p: Partition, path_or_file) -> None:
    fh, close = _open(path_or_file, "w")
    try:
        fh.write(f"{p.n} {p.k}\n")
        for a in p.assign.tolist():
            fh.write(f"{a}\n")
    finally:
        if close:
            fh.close()
