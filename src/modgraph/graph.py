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

import bisect
import contextlib
import multiprocessing
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Partition",
    "ModularityBreakdown",
    "EmptyGraphError",
    "InvalidPartitionError",
    "EdgeListFormatError",
    "TooLargeError",
    "modularity_score",
    "connected_components",
    "induced_subgraph",
    "read_edgelist",
    "write_edgelist",
    "read_partition",
    "write_partition",
]


class EmptyGraphError(ValueError):
    """Raised when an operation needs at least one edge."""


class InvalidPartitionError(ValueError):
    """Raised when a partition does not satisfy an operation's precondition."""


class TooLargeError(ValueError):
    """Input above a size limit: a solver's or the oracle's cap, a range."""


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


# A pass over fewer edges runs on the calling thread alone: below about 16
# blocks a helper thread's start and join cost more than its share saves.
_THREAD_MIN_EDGES = 16 * _BLOCK
# Threads of one pass at most: two, the only count measured (on two CPUs)
_MAX_THREADS = 2


def _usable_cpus() -> Optional[int]:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _threads(edges: float) -> int:
    """Threads for a pass over about `edges` edges: the usable CPUs up to
    _MAX_THREADS, but one under _THREAD_MIN_EDGES and one in a sweep's
    pool worker, which already holds a CPU of its own.  taskset bounds it
    from outside."""
    if edges < _THREAD_MIN_EDGES or multiprocessing.parent_process() is not None:
        return 1
    return min(_MAX_THREADS, _usable_cpus() or 1)


def _run_threads(work: Callable, items: Iterable, threads: int) -> list:
    """[work(item) for item in items], on the calling thread and threads - 1
    helpers, each taking the next item not yet taken, so a thread that the
    machine runs late takes fewer.  The helpers are joined before this
    returns or re-raises a raise."""
    if threads == 1:
        return [work(item) for item in items]
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for item in enumerate(items):
        todo.put(item)
    results = [None] * todo.qsize()

    def take() -> None:
        with contextlib.suppress(queue.Empty):
            while True:
                i, item = todo.get_nowait()
                results[i] = work(item)

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(take) for _ in range(threads - 1)]
        take()
        for helper in helpers:
            helper.result()
    return results


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[index] for an index already known to lie in range, such as a
    block of edge endpoints.  Fancy indexing first converts an int32 index
    to intp; take in 'wrap' mode (a no-op in range) does not, and gathers
    a block in about half the time."""
    return np.take(values, index, mode="wrap")


_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(count: int) -> type:
    """Dtype of ids below `count` (vertex or part) or of offsets up to it:
    int32 while they fit."""
    return np.int32 if count <= _INT32_MAX else np.int64


def _sum_sq(values: np.ndarray) -> int:
    """Exact sum of squares of non-negative int64 values whose sum fits in
    int64, as part volumes (summing to 2m) do.  Each partial sum of squares
    is at most max(v) * sum(v); while that product, taken in Python
    integers, fits in int64 the int64 dot product cannot wrap, and past it
    (a graph of about 1.5e9 edges or more) Python integers add the squares."""
    if values.size == 0:
        return 0
    if int(values.max()) * int(values.sum()) <= np.iinfo(np.int64).max:
        return int(np.dot(values, values))
    return sum(v * v for v in values.tolist())


class Graph:
    """Immutable simple graph: no self-loops, no duplicate edges.

    Edges are stored as the rows of the upper-triangle CSR: edge_v holds
    each edge's larger endpoint, the rows in ascending order and each row
    sorted, and indptr (n+1 offsets into edge_v, int32 while m fits) says
    where row u starts, so the edges are the pairs (u, v), u < v, in
    lexicographic order.  That is about 4 B per edge plus O(n); deg is
    derived from the rows.  edge_u, each edge's smaller endpoint, is
    derived on each access at O(m), for small graphs and tests; the O(m)
    passes read the rows blockwise (_edge_blocks) instead.  The adjacency
    CSR, each vertex's neighbours in ascending order, is built without a
    sort on each call to adjacency() and not kept.  Endpoints must have an
    integer dtype; an empty edge list of any dtype is the empty graph.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        self._init_from_arrays(int(n), u, v)

    @classmethod
    def from_arrays(cls, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                    _trusted: bool = False) -> "Graph":
        """Fast path for generators: needs edge_u[i] < edge_v[i], pairs in any order.

        _trusted skips every edge check (integer dtype, range, u < v, order
        and duplicates) and takes the rows as given: edge_u is then the row
        pointer (n+1 offsets into edge_v, from 0 to its length) and edge_v
        must be sorted within each row.  Only the library's own builds that
        make them so may set it: gen_gnp and gen_gnm through the pair
        decoder, and induced_subgraph.
        """
        g = cls.__new__(cls)
        g._init_from_arrays(int(n), np.asarray(edge_u), np.asarray(edge_v),
                            trusted=_trusted)
        return g

    def _init_from_arrays(self, n: int, u: np.ndarray, v: np.ndarray,
                          trusted: bool = False) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        dtype = _index_dtype(n)
        if trusted:
            indptr = u
        else:
            if u.shape != v.shape:
                raise ValueError("edge endpoint arrays differ in length")
            if u.size:
                if not (u.dtype.kind in "iu" and v.dtype.kind in "iu"):
                    raise ValueError(f"edge endpoints must be integers, not {u.dtype}/{v.dtype}")
                # before the cast, which would wrap a larger value
                if (min(int(u.min()), int(v.min())) < 0
                        or max(int(u.max()), int(v.max())) >= n):
                    raise ValueError("edge endpoint out of range")
            u = u.astype(dtype, copy=True)
            v = v.astype(dtype, copy=True)
            for blk in _blocks(u.size):
                if np.any(u[blk] >= v[blk]):
                    bad = blk.start + int(np.flatnonzero(u[blk] >= v[blk])[0])
                    if int(u[bad]) == int(v[bad]):
                        raise ValueError(f"self-loop at vertex {int(u[bad])}")
                    raise ValueError("edges must satisfy u < v")
            # keys u*n + v: sorted only when one scan finds them out of order
            key = u.astype(np.int64) * n
            key += v
            if np.any(np.diff(key) <= 0):
                order = np.argsort(key)
                u = u[order]
                v = v[order]
                key = key[order]
                if np.any(np.diff(key) <= 0):
                    raise ValueError("duplicate edge")
            del key
            # u is sorted now, so from 2 edges per vertex up (where the two
            # costs cross, as in the pair decoder) one search per row start
            # finds the rows; below, bincount counts them
            if u.size >= 2 * n:
                indptr = np.searchsorted(u, np.arange(n + 1, dtype=u.dtype))
            else:
                indptr = np.zeros(n + 1, dtype=_index_dtype(u.size))
                np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
            del u
        v = np.asarray(v, dtype=dtype)
        indptr = np.asarray(indptr, dtype=_index_dtype(v.size))
        indptr.setflags(write=False)
        v.setflags(write=False)
        # bincount casts its input to a full int64 copy; blocks bound that
        # copy, and at 8n edges or more they amortize each call's O(n)
        # counts.  The threads share that budget and add their blocks'
        # counts to deg one at a time; each holds n counts of its own.
        deg = np.subtract(indptr[1:], indptr[:-1], dtype=np.int64)
        threads = _threads(v.size)
        lock = threading.Lock() if threads > 1 else contextlib.nullcontext()

        def count(blk: slice) -> None:
            counts = np.bincount(v[blk], minlength=n)
            with lock:
                np.add(deg, counts, out=deg)

        _run_threads(count, _blocks(v.size, max(_BLOCK, 8 * n) // threads), threads)
        deg.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", int(v.size))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "edge_v", v)
        object.__setattr__(self, "deg", deg)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_u(self) -> np.ndarray:
        """Each edge's smaller endpoint, derived from the rows: O(m) per access."""
        u = np.arange(self.n, dtype=self.edge_v.dtype).repeat(
            self.indptr[1:] - self.indptr[:-1])
        u.setflags(write=False)
        return u

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors) CSR covering both directions of each edge."""
        mat = _symmetric_csr(self, np.ones(self.m, dtype=np.int8))
        return mat.indptr, mat.indices

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
                and bool(np.array_equal(self.indptr, other.indptr))
                and bool(np.array_equal(self.edge_v, other.edge_v)))

    def __hash__(self):
        return hash((self.n, self.m, self.indptr.tobytes(), self.edge_v.tobytes()))


def _edge_blocks(g: Graph, start: int = 0,
                 stop: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """g's edges start..stop-1 (all by default) in order, in blocks of at
    most _BLOCK edges, each as (rows, counts, v): v is the block's slice of
    edge_v, rows indexes the rows that hold it in ascending order and
    counts[i] is how many of its edges lie in the i-th of them, so
    np.repeat(x[rows], counts) is x[edge_u] for the block.  rows is the
    slice of the rows the block spans, or, when it spans more rows than it
    has edges, an array of its non-empty rows only, so the repeat walks no
    empty row and a pass costs O(edges) plus one vectorized scan of the
    spanned rows' counts."""
    indptr = g.indptr
    at = indptr.dtype.type  # a Python int key would cast indptr to int64 per search
    stop = g.m if stop is None else stop
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        # rows r0..r1-1 hold the block: row r0 starts at or before it and
        # row r1 at or after its end, so only their counts are trimmed
        r0 = int(indptr.searchsorted(at(lo), "right")) - 1
        r1 = int(indptr.searchsorted(at(hi)))
        counts = np.subtract(indptr[r0 + 1:r1 + 1], indptr[r0:r1], dtype=np.intp)
        counts[0] -= lo - indptr[r0]
        counts[-1] -= indptr[r1] - hi
        if r1 - r0 > hi - lo:
            rows = np.flatnonzero(counts > 0)  # about twice as fast as on counts
            counts = counts[rows]
            rows += r0
        else:
            rows = slice(r0, r1)
        yield rows, counts, g.edge_v[lo:hi]


def _edge_pass(g: Graph, work: Callable[[Iterator], object],
               stop: int | None = None) -> list:
    """[work(blocks) for each piece]: g's edges 0..stop-1 (all by default)
    cut into contiguous pieces of about _THREAD_MIN_EDGES edges, at least
    one per thread (_threads), each read by _edge_blocks.  Each piece
    starts at a row start, so no row is in two pieces and work may write
    its rows' entries of a shared array."""
    stop = g.m if stop is None else stop
    threads = _threads(stop)
    pieces = max(threads, stop // _THREAD_MIN_EDGES)
    at = g.indptr.dtype.type
    bounds = [0] + [int(g.indptr[g.indptr.searchsorted(at(stop * t // pieces), "right") - 1])
                    for t in range(1, pieces)] + [stop]
    return _run_threads(lambda piece: work(_edge_blocks(g, *piece)),
                        zip(bounds, bounds[1:]), threads)


def _upper_csr(g: Graph, data: np.ndarray):
    """scipy CSR with data[i] at (edge_u[i], edge_v[i]), column indices
    sorted: g's own rows."""
    from scipy.sparse import csr_matrix

    return csr_matrix((data, g.edge_v, g.indptr), shape=(g.n, g.n))


def _symmetric_csr(g: Graph, data: np.ndarray):
    """_upper_csr plus its mirror, which an O(m) transpose adds."""
    upper = _upper_csr(g, data)
    return upper + upper.T


class Partition:
    """Assignment of every vertex to one of k parts, ids contiguous 0..k-1.

    Ids are integers, and empty parts are forbidden so k is well-defined;
    the checks are O(n) (no sort) in the ids' own dtype, then one copy
    makes the kept ids.  Use from_labels to compress arbitrary labels
    (ids are then ordered by smallest contained vertex).
    """

    __slots__ = ("assign", "k")

    def __init__(self, assign: Sequence[int] | np.ndarray):
        arr = np.asarray(assign)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("assignment must be a non-empty vector")
        if arr.dtype.kind not in "iu":
            raise InvalidPartitionError(f"part ids must be integers, not {arr.dtype}")
        if int(arr.min()) < 0:
            raise InvalidPartitionError("negative part id")
        nk = int(arr.max()) + 1
        # more ids than vertices leaves a part empty, before nk flags exist.
        # Indexing casts int32 ids in pieces; bincount would copy them all
        if nk <= arr.size:
            seen = np.zeros(nk, dtype=bool)
            seen[arr] = True
        if nk > arr.size or not seen.all():
            raise InvalidPartitionError("part ids must be contiguous (no empty parts)")
        arr = arr.astype(_index_dtype(nk))
        arr.setflags(write=False)
        object.__setattr__(self, "assign", arr)
        object.__setattr__(self, "k", nk)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_labels(cls, labels: Sequence[int] | np.ndarray) -> "Partition":
        """Compress arbitrary labels to contiguous ids in first-appearance
        order, i.e. part ids ordered by smallest contained vertex.

        Two paths.  Labels already in first-appearance order (a
        restricted-growth string: non-negative integers whose running
        maximum starts at 0 and never rises by more than 1), as scipy's
        component labels are, pass an O(n) test and are the ids
        themselves; the test is needed as scipy does not document its
        label order.  Any other labels (integers out of that order,
        negative, float, bool, string) are ranked by one np.unique: a
        label's id is the rank of its first position among the labels'
        first positions."""
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("assignment must be a non-empty vector")
        if arr.dtype.kind in "iu" and int(arr.min()) >= 0:
            top = np.maximum.accumulate(arr)
            if top[0] == 0 and (np.diff(top) <= 1).all():
                return cls(arr)
            del top
        _, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        return cls(rank[inverse])

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
    a = p.assign

    def inside(blocks) -> int:
        # the take first: its transient intp copy of v is gone before the repeat
        return sum(int(np.count_nonzero(_take(a, v) == np.repeat(a[rows], counts)))
                   for rows, counts, v in blocks)

    e_in = sum(_edge_pass(g, inside))
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


def connected_components(g: Graph) -> Partition:
    """Partition into connected components, ids ordered by smallest vertex."""
    if g.n == 0:
        raise InvalidPartitionError("graph has no vertices")
    from scipy.sparse.csgraph import connected_components as _cc

    _, labels = _cc(_upper_csr(g, np.ones(g.m, dtype=np.int8)), directed=False)
    return Partition.from_labels(labels)


def _component_edges(g: Graph, comps: Partition) -> np.ndarray:
    """Edges per part of comps = connected_components(g): each edge lies in
    the part of edge_u, so weigh each vertex by its upper-row length."""
    # float64 bincount is exact for integer sums below 2^53
    edges = np.bincount(comps.assign, weights=np.diff(g.indptr), minlength=comps.k)
    return edges.astype(np.int64)


def induced_subgraph(g: Graph, vertices: Sequence[int] | np.ndarray) -> Graph:
    """Induced subgraph on the given vertices (integer ids; an empty selection
    of any dtype is the empty graph), re-indexed in ascending order of the
    original labels; the whole vertex set returns g itself."""
    keep = np.asarray(vertices)
    if keep.ndim != 1:
        raise ValueError(f"vertices must be a 1-D sequence, not {keep.ndim}-D")
    if keep.size and keep.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, not {keep.dtype}")
    keep = keep.astype(np.int64, copy=False)
    if not (keep[1:] > keep[:-1]).all():
        keep = np.unique(keep)
    if keep.size and (keep[0] < 0 or keep[-1] >= g.n):
        raise ValueError("vertex out of range")
    if keep.size == g.n:
        return g
    mask = np.zeros(g.n, dtype=bool)
    mask[keep] = True
    new_id = (np.cumsum(mask) - 1).astype(_index_dtype(keep.size))
    # kept edges per row of g, and their relabelled v: the mask keeps the
    # rows' order and the increasing relabel sorts each kept row
    rows = np.zeros(g.n, dtype=np.int64)
    vs = [np.empty(0, dtype=new_id.dtype)]
    for blk_rows, counts, v in _edge_blocks(g):
        sel = np.repeat(mask[blk_rows], counts) & mask[v]
        rows[blk_rows] += np.bincount(
            np.repeat(np.arange(counts.size), counts)[sel], minlength=counts.size)
        vs.append(new_id[v[sel]])
    indptr = np.concatenate(([0], np.cumsum(rows[keep])))
    return Graph.from_arrays(int(keep.size), indptr, np.concatenate(vs), _trusted=True)


def _open(path_or_file, mode: str, newline: str | None = None):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode, newline=newline)


def _read_records(path_or_file, header: str, counted: int, width: int,
                  record: str, noun: str):
    """Read a header of two non-negative integers named `header`, as many
    records of `width` integers as header field `counted` says, and then
    only blank lines.  Returns the header, the records before the first
    malformed line (int64, one row each) and that line's
    EdgeListFormatError, or None when every line is well formed."""
    with _open(path_or_file, "r") as fh:
        fields = fh.readline().split()
        lines = fh.readlines()
    try:
        a, b = np.array(fields, dtype=np.int64).tolist()
    except (ValueError, OverflowError):
        raise EdgeListFormatError(1, f"expected integer header '{header}'") from None
    if a < 0 or b < 0:
        raise EdgeListFormatError(1, f"{' and '.join(header.split())} must be non-negative")
    count = (a, b)[counted]
    body = lines[:count]
    good = next((i for i, line in enumerate(body) if len(line.split()) != width), len(body))
    try:
        values = np.array(" ".join(body[:good]).split(), dtype=np.int64)
    except (ValueError, OverflowError):  # a token that is no int64: find its line
        for good, line in enumerate(body):
            try:
                np.array(line.split(), dtype=np.int64)
            except (ValueError, OverflowError):
                break
        values = np.array(" ".join(body[:good]).split(), dtype=np.int64)
    extra = next((i for i, line in enumerate(lines[count:], count + 2) if line.strip()), None)
    err = None
    if good < len(body):
        err = EdgeListFormatError(good + 2, f"expected {record}")
    elif good < count:
        err = EdgeListFormatError(good + 2, f"expected {count} {noun}, file ended early")
    elif extra is not None:
        err = EdgeListFormatError(extra, f"expected {count} {noun}, found more")
    return (a, b), values.reshape(-1, width), err


def _write_records(path_or_file, header: tuple[int, int], *columns) -> None:
    """The header's two integers, then one line per record of the columns'
    integers: the layout _read_records reads."""
    with _open(path_or_file, "w") as fh:
        fh.write(f"{header[0]} {header[1]}\n")
        fh.writelines(" ".join(map(str, row)) + "\n"
                      for row in zip(*(col.tolist() for col in columns)))


def read_edgelist(path_or_file) -> Graph:
    """Parse the edge-list text format: first line "n m", then m lines
    "u v" with 0 <= u < v < n, no edge twice.  The first faulty line in
    file order is reported as an EdgeListFormatError with its number."""
    (n, _), edges, err = _read_records(path_or_file, "n m", 1, 2, "integers 'u v'", "edges")
    u, v = edges.T

    def fault(lo: int, hi: int) -> tuple[ValueError | None, Graph | None]:
        try:
            return None, Graph.from_arrays(n, u[lo:hi], v[lo:hi])
        except ValueError as exc:
            return exc, None

    exc, g = fault(0, len(edges))
    if exc is not None:
        # Graph only says that some edge is faulty.  A fault in a prefix
        # stays in every longer one, so bisection finds the first.
        i = bisect.bisect_left(range(len(edges) + 1), True,
                               key=lambda k: fault(0, k)[0] is not None) - 1
        a, b = edges[i].tolist()
        alone, _ = fault(i, i + 1)
        if alone is not None:
            raise EdgeListFormatError(i + 2, f"edge ({a}, {b}) violates 0 <= u < v < n: {alone}")
        first = int(np.flatnonzero((edges[:i] == edges[i]).all(axis=1))[0])
        raise EdgeListFormatError(
            i + 2, f"duplicate edge ({a}, {b}), first seen on line {first + 2}")
    if err is not None:
        raise err
    return g


def write_edgelist(g: Graph, path_or_file) -> None:
    _write_records(path_or_file, (g.n, g.m), g.edge_u, g.edge_v)


def read_partition(path_or_file) -> Partition:
    """Parse the partition text format: first line "n k", then n part ids
    in 0..k-1 that leave no part empty.  Faults are reported as
    EdgeListFormatError with a line number: an id on its own line, an n or
    k that no partition fits on line 1."""
    (n, k), ids, err = _read_records(path_or_file, "n k", 0, 1,
                                     "one integer part id", "part ids")
    ids = ids.ravel()
    outside = np.flatnonzero((ids < 0) | (ids >= k))
    if outside.size:
        i = int(outside[0])
        raise EdgeListFormatError(i + 2, f"part id {ids[i]} outside 0..{k - 1}")
    if err is not None:
        raise err
    try:
        part = Partition(ids)
    except InvalidPartitionError as exc:
        raise EdgeListFormatError(1, f"header '{n} {k}': {exc}") from None
    if part.k != k:
        raise EdgeListFormatError(1, f"header declares k={k} but ids use {part.k} parts")
    return part


def write_partition(p: Partition, path_or_file) -> None:
    _write_records(path_or_file, (p.n, p.k), p.assign)
