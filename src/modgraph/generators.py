"""Seeded random-graph generators: G(n,p), G(n,m), and planted k-block graphs.

All randomness flows through numpy's PCG64 bit generator seeded via
SeedSequence, so streams are portable and reproducible bit-for-bit.
Parallel sweeps must derive independent substreams from
(seed, task indices) with :func:`substream`; generator state is never
shared.

G(n,p) uses geometric gap-skipping over the linear pair index instead of
n(n-1)/2 Bernoulli draws, so runtime is O(n + output edges) and n = 1e6
sweeps at p = c/n are cheap.  Positions are sampled and decoded in
cache-sized blocks (graph._BLOCK) straight to the graph's storage, the
upper-triangle CSR rows: each pair's larger endpoint goes to the int32
edge_v array and its row to an O(n) count whose running sum is the row
pointer.  So a G(n,p) draw holds about 4 B per edge plus O(n), and no
edge-length int64, float64 or edge_u array exists.  Decoding inverts the
closed-form row start u(2n-1-u)/2, so no n-length row-start table exists
either.  The blocks split each request for exponentials without changing
it: a request is drawn in full and its size depends only on the trials
left and p, so every stream and the generator state after each call are
the same as with one whole-request draw.

The sampler has two stages.  The draw stage (_gap_blocks) turns
exponentials into integer gaps and tracks the stream's end from their
block sums; the prefix stage (_positions) turns gaps into positions by a
running sum.  When graph._threads grants a G(n,p) draw a second CPU, the
draw stage runs on a helper thread ahead of the calling thread, which
runs the prefix stage, decodes and stores (numpy releases the GIL in each
of these kernels), with at most one block waiting between them; otherwise
both run inline.  Either way the stream, and so every output byte, is the
same.
"""

from __future__ import annotations

import contextlib
import math
import queue
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph import _BLOCK, Graph, TooLargeError, _index_dtype, _threads

__all__ = [
    "LabeledGraph",
    "MTooLargeError",
    "RateOutOfRangeError",
    "substream",
    "gen_gnp",
    "gen_gnm",
    "gen_planted",
]


class MTooLargeError(ValueError):
    """Requested edge count exceeds n(n-1)/2."""


class RateOutOfRangeError(ValueError):
    """Planted-model rate outside (0, n] for alpha or [0, n] for beta."""


@dataclass(frozen=True)
class LabeledGraph:
    """Planted-model output: the graph plus the block label of each vertex."""

    graph: Graph
    labels: np.ndarray
    k: int

    def __post_init__(self):
        if self.labels.shape != (self.graph.n,):
            raise ValueError("labels must have length n")
        if self.labels.size and not (0 <= int(self.labels.min())
                                     and int(self.labels.max()) < self.k):
            raise ValueError("block id out of range")
        self.labels.setflags(write=False)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 stream derived by hashing (seed, key indices)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _rng(seed) -> np.random.Generator:
    """A Generator is used as given; an integer >= 0 seeds a fresh stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    return substream(int(seed))


def _request_size(remaining: int, p: float) -> int:
    """Exponentials drawn per request: the expected successes among the
    `remaining` trials, plus 2 % and 64 spare, and at least 1024."""
    return max(1024, int(remaining * p * 1.02) + 64)


def _gap_blocks(rng: np.random.Generator, count: int,
                p: float) -> Iterator[np.ndarray]:
    """Draw stage: the gaps between the successes of `count` Bernoulli(p)
    trials, from position -1, in int64 blocks of at most _BLOCK; the last
    block ends with the last success below `count`.

    Gaps are iid Geometric(p), sampled by exact inversion of unit
    exponentials, E / -log1p(-p) cast to int64 (truncation, which is floor
    for E >= 0) plus 1; distributionally identical to `count` independent
    coin flips.  A gap past `count` ends the stream whatever its size, so
    each is clamped in float just above `count` before the cast, and no
    cast, sum or prefix can wrap.  Each request of _request_size
    exponentials is drawn in full, block by block, and the overshoot past
    `count` is discarded, so the stream and the final `rng` state depend
    on neither the block size nor the thread that runs this stage.  The
    stream's end is tracked from block sums; the block that reaches it is
    cut at its first position at or past `count`, found by its own
    running sum, which is exact up to that position.  Exhaust the
    iterator before drawing from `rng` again.
    """
    if count <= 0 or p <= 0.0:
        return
    if p >= 1.0:
        for lo in range(0, count, _BLOCK):
            yield np.ones(min(_BLOCK, count - lo), dtype=np.int64)
        return
    lam = -math.log1p(-p)
    top = math.nextafter(count, math.inf)
    # a gap is at most 2 * count + 2, so while this holds no block sum wraps
    sums_fit = count + _BLOCK * (2 * count + 2) < 2**63
    # requests shrink with the trials left, so the first one bounds them all
    buf = np.empty(min(_BLOCK, _request_size(count, p)))
    last = -1
    while last < count:
        size = _request_size(count - 1 - last, p)
        for lo in range(0, size, _BLOCK):
            piece = buf[:min(_BLOCK, size - lo)]
            rng.standard_exponential(out=piece)
            if last >= count:
                continue  # past the end: drawn only to finish the request
            piece /= lam
            np.minimum(piece, top, out=piece)
            gaps = piece.astype(np.int64)
            gaps += 1
            if sums_fit:
                total = int(gaps.sum())
                if last + total < count:
                    last += total
                    yield gaps
                    continue
            # the drawn piece is spent, so its buffer holds the running sum
            reach = np.cumsum(gaps, out=piece.view(np.int64))
            over = reach >= count - last
            end = int(over.argmax())
            if over[end]:
                last = count
                yield gaps[:end]
            else:
                last += int(reach[-1])
                yield gaps


def _positions(gap_blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Prefix stage: the sorted positions the gap blocks of _gap_blocks
    reach, block by block: each block's running sum, in place, from the
    previous block's last position."""
    last = -1
    for gaps in gap_blocks:
        if gaps.size:
            gaps[0] += last
            np.cumsum(gaps, out=gaps)
            last = int(gaps[-1])
            yield gaps


def _bernoulli_positions(rng: np.random.Generator, count: int,
                         p: float) -> Iterator[np.ndarray]:
    """Sorted positions of successes in `count` Bernoulli(p) trials, yielded
    in int64 blocks of at most _BLOCK positions: both stages inline."""
    return _positions(_gap_blocks(rng, count, p))


@contextlib.contextmanager
def _ahead(items: Iterator, threaded: bool):
    """`items`, or when threaded the same items produced on a helper thread
    while the consumer works, with at most one of them waiting.  Leaving
    the block stops the helper and joins it, and a raise on it re-raises
    in the consumer."""
    if not threaded:
        yield items
        return
    slot: queue.Queue = queue.Queue(maxsize=1)
    stop = threading.Event()
    done = object()

    def produce():
        try:
            for item in items:
                slot.put((item, None))
                if stop.is_set():
                    return
            slot.put((done, None))
        except BaseException as exc:  # re-raised by the consumer, never lost
            slot.put((done, exc))

    def consume():
        while True:
            item, exc = slot.get()
            if exc is not None:
                raise exc
            if item is done:
                return
            yield item

    helper = threading.Thread(target=produce, daemon=True)
    helper.start()
    try:
        yield consume()
    finally:
        # after stop is set the helper puts at most once more, and never
        # into a full slot once this get has emptied it
        stop.set()
        with contextlib.suppress(queue.Empty):
            slot.get_nowait()
        helper.join()


def _row_start(u, n: int):
    """Start of row u in the linear index over pairs (u, v), u < v, of n
    vertices; u is a Python int or an int64 array."""
    return u * (2 * n - 1 - u) // 2


def _row_of(pos: int, n: int) -> int:
    """Row of linear pair index pos, exactly: counted from the last pair,
    q = n(n-1)/2 - 1 - pos lies in row n - 2 - j for the largest j with
    j(j+1)/2 <= q."""
    q = n * (n - 1) // 2 - 1 - pos
    return n - 2 - (math.isqrt(8 * q + 1) - 1) // 2


def _pairs_from_index(pos: np.ndarray, n: int,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a sorted block of linear pair indices over n vertices to rows:
    (rows, counts, v), where counts[i] of the pairs lie in row rows[i]
    (int64, ascending) and v holds each pair's larger endpoint, so the
    pairs are (np.repeat(rows, counts), v).  v is written to `out` (pos.size
    integers, such as a slice of a graph's edge storage) when given, else
    to a new array of n's index dtype.

    Row u starts at u(2n-1-u)/2 and v = pos - (start(u) - u - 1); the rows
    r0..r1 that the block spans come from it exactly, in Python integers.
    At 2 or more indices per row (about where the two costs cross) each
    row start is found among the indices, which gives the count of every
    row r0..r1.  Below that each index's row is the float inverse counted
    from the last pair, q = n(n-1)/2 - 1 - pos, and the rows that occur
    are counted where the sorted rows change.  At a row's last pair 8q+1 =
    (2j+1)^2 and float rounding moves the root by under half an ulp, so
    the inverse is exact there; being monotone in q, it is never a row
    late, and near a row's start it can be one row early, which one step
    corrects.  Exact for n <= 3,037,000,499, where u(2n-1-u) fits in
    int64; the generators refuse a larger n."""
    dtype = _index_dtype(n)
    if pos.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=dtype) if out is None else out)
    r0, r1 = _row_of(int(pos[0]), n), _row_of(int(pos[-1]), n)
    if pos.size < 2 * (r1 - r0 + 1):
        j = np.sqrt(8.0 * (n * (n - 1) // 2 - 1 - pos) + 1)
        j -= 1
        j /= 2
        u = (n - 2) - np.floor(j, out=j).astype(np.int64)
        u += _row_start(u + 1, n) <= pos
        shift = _row_start(u, n)
        shift -= u
        shift -= 1
        # where the sorted rows change, with the end as one more change
        change = np.ones(u.size + 1, dtype=bool)
        np.not_equal(u[1:], u[:-1], out=change[1:-1])
        bounds = change.nonzero()[0]
        rows = u[bounds[:-1]]
        counts = bounds[1:] - bounds[:-1]
    else:
        rows = np.arange(r0, r1 + 1, dtype=np.int64)
        span = _row_start(np.arange(r0, r1 + 2, dtype=np.int64), n)
        ends = pos.searchsorted(span)
        counts = ends[1:] - ends[:-1]
        shift = np.repeat(span[:-1] - (rows + 1), counts)
    if out is None:
        # a new array: the int64 difference and its cast cost less per
        # call than the buffered cast of a subtract into it
        return rows, counts, (pos - shift).astype(dtype)
    np.subtract(pos, shift, out=out, casting="unsafe")
    return rows, counts, out


# The largest n of any generator: _pairs_from_index is exact up to it.
MAX_N = 3_037_000_499


def _check_n(n: int) -> None:
    """A generator's n: at least 1, and at most MAX_N.  Checked before any
    n-sized allocation."""
    if n > MAX_N:
        raise TooLargeError(f"n={n} exceeds {MAX_N}, the pair decoder's exact range")
    if n < 1:
        raise ValueError("n must be >= 1")


def _row_pointer(rows: np.ndarray, m: int) -> np.ndarray:
    """Row pointer of m edges from per-row counts shifted by one (rows[u + 1]
    counts row u, rows[0] = 0): their running sum, in place while int32
    holds m."""
    indptr = rows.astype(_index_dtype(m), copy=False)
    return indptr.cumsum(out=indptr)


def gen_gnp(n: int, p: float, seed) -> Graph:
    """G(n,p): each of the n(n-1)/2 pairs is an edge independently with
    probability p.  Deterministic given (n, p, seed)."""
    _check_n(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = _rng(seed)
    count = n * (n - 1) // 2
    # room for the first request's positions: the untouched tail is never
    # written, so its pages stay unmapped; a second request grows the array.
    # rows[u + 1] counts row u's edges, and its running sum is the row pointer
    cap = count if p >= 1.0 else _request_size(count, p)
    v = np.empty(cap, dtype=_index_dtype(n))
    rows = np.zeros(n + 1, dtype=v.dtype)
    m = 0
    # with a second CPU for the expected edges, the draw stage runs on a
    # helper thread
    with _ahead(_gap_blocks(rng, count, p), _threads(count * p) > 1) as gaps:
        for pos in _positions(gaps):
            if m + pos.size > v.size:
                v = np.concatenate((v[:m], np.empty_like(v)))
            used, counts, _ = _pairs_from_index(pos, n, v[m:m + pos.size])
            rows[used + 1] += counts
            m += pos.size
    return Graph.from_arrays(n, _row_pointer(rows, m), v[:m], _trusted=True)


def gen_gnm(n: int, m: int, seed) -> Graph:
    """G(n,m): uniform over m-edge graphs, via Floyd's subset sampling of
    pair indices.  Deterministic given (n, m, seed)."""
    _check_n(n)
    count = n * (n - 1) // 2
    if m < 0:
        raise ValueError(f"m must be >= 0, not {m}")
    if m > count:
        raise MTooLargeError(f"m={m} exceeds pair count {count}")
    rng = _rng(seed)
    # one draw of t_j in 0..j for each j, the same values and final state
    # as one rng.integers(0, j + 1) per j
    draws = rng.integers(0, np.arange(count - m + 1, count + 1)).tolist()
    chosen: set[int] = set()
    for j, t in zip(range(count - m, count), draws):
        chosen.add(j if t in chosen else t)
    pos = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    pos.sort()
    used, counts, v = _pairs_from_index(pos, n)
    rows = np.zeros(n + 1, dtype=v.dtype)
    rows[used + 1] = counts
    return Graph.from_arrays(n, _row_pointer(rows, m), v, _trusted=True)


def gen_planted(n: int, alpha: float, beta: float, k: int, seed) -> LabeledGraph:
    """Planted k-block graph: labels iid uniform on 0..k-1; a pair is an edge
    with probability alpha/n when the labels agree and beta/n otherwise.
    Labels are retained in the output (callers may discard them)."""
    _check_n(n)
    if not (0.0 < alpha <= n):
        raise RateOutOfRangeError("alpha/n must lie in (0, 1]")
    if not (0.0 <= beta <= n):
        raise RateOutOfRangeError("beta/n must lie in [0, 1]")
    if k < 2:
        raise ValueError("planted model needs k >= 2 blocks")
    rng = _rng(seed)
    labels = rng.integers(0, k, size=n)
    blocks = [np.flatnonzero(labels == i) for i in range(k)]
    p_in = alpha / n
    p_out = beta / n
    eu_chunks = [np.empty(0, dtype=np.int64)]
    ev_chunks = [np.empty(0, dtype=np.int64)]
    for i in range(k):
        verts_i = blocks[i]
        s_i = verts_i.size
        # within-block pairs
        for pos in _bernoulli_positions(rng, s_i * (s_i - 1) // 2, p_in):
            used, counts, lv = _pairs_from_index(pos, s_i)
            eu_chunks.append(np.repeat(verts_i[used], counts))
            ev_chunks.append(verts_i[lv])
        # cross-block pairs against every later block
        for j in range(i + 1, k):
            verts_j = blocks[j]
            s_j = verts_j.size
            for pos in _bernoulli_positions(rng, s_i * s_j, p_out):
                a, b = np.divmod(pos, s_j)
                gu = verts_i[a]
                gv = verts_j[b]
                eu_chunks.append(np.minimum(gu, gv))
                ev_chunks.append(np.maximum(gu, gv))
    graph = Graph.from_arrays(n, np.concatenate(eu_chunks), np.concatenate(ev_chunks))
    return LabeledGraph(graph=graph, labels=labels, k=k)
