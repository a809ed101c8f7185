"""Seeded random-graph generators: G(n,p), G(n,m), and planted k-block graphs.

All randomness flows through numpy's PCG64 bit generator seeded via
SeedSequence, so streams are portable and reproducible bit-for-bit.
Parallel sweeps must derive independent substreams from
(seed, task indices) with :func:`substream`; generator state is never
shared.

G(n,p) uses geometric gap-skipping over the linear pair index instead of
n(n-1)/2 Bernoulli draws, so runtime is O(n + output edges) and n = 1e6
sweeps at p = c/n are cheap.  Positions are sampled and decoded to int32
(u, v) pairs in cache-sized blocks (graph._BLOCK), so no edge-length int64
or float64 array exists.  The blocks split each request for exponentials
without changing it: a request is drawn in full and its size depends only
on the trials left and p, so every stream and the generator state after
each call are the same as with one whole-request draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .graph import _BLOCK, Graph

__all__ = [
    "Model",
    "GeneratorSpec",
    "LabeledGraph",
    "MTooLargeError",
    "RateOutOfRangeError",
    "substream",
    "gen_gnp",
    "gen_gnm",
    "gen_planted",
    "sample",
]


class MTooLargeError(ValueError):
    """Requested edge count exceeds n(n-1)/2."""


class RateOutOfRangeError(ValueError):
    """Planted-model rate outside (0, n] for alpha or [0, n] for beta."""


class Model(str, Enum):
    GNP = "gnp"
    GNM = "gnm"
    PLANTED = "planted"


_SPEC_KEYS = ("model", "n", "p", "m", "alpha", "beta", "k", "seed")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters plus seed for one random-graph draw.

    Exactly the fields of the selected model may be set: p for GNP, m for
    GNM, (alpha, beta, k) for PLANTED.
    """

    model: Model
    n: int
    seed: int
    p: Optional[float] = None
    m: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        required = {Model.GNP: ("p",), Model.GNM: ("m",),
                    Model.PLANTED: ("alpha", "beta", "k")}[self.model]
        for name in ("p", "m", "alpha", "beta", "k"):
            val = getattr(self, name)
            if name in required and val is None:
                raise ValueError(f"model {self.model.value} requires field {name!r}")
            if name not in required and val is not None:
                raise ValueError(f"model {self.model.value} forbids field {name!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.model is Model.GNP and not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if self.model is Model.GNM and not (0 <= self.m <= self.n * (self.n - 1) // 2):
            raise MTooLargeError(f"m={self.m} exceeds pair count for n={self.n}")
        if self.model is Model.PLANTED:
            if not (0.0 < self.alpha <= self.n):
                raise RateOutOfRangeError("alpha/n must lie in (0, 1]")
            if not (0.0 <= self.beta <= self.n):
                raise RateOutOfRangeError("beta/n must lie in [0, 1]")
            if self.k < 2:
                raise ValueError("planted model needs k >= 2 blocks")

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in _SPEC_KEYS}
        payload["model"] = self.model.value
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        raw = json.loads(text)
        unknown = set(raw) - set(_SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown GeneratorSpec keys: {sorted(unknown)}")
        kwargs = {key: raw.get(key) for key in _SPEC_KEYS if raw.get(key) is not None}
        kwargs["model"] = Model(str(raw["model"]).lower())
        return cls(**kwargs)


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
    """A Generator is used as given; an integer seeds a fresh stream."""
    return seed if isinstance(seed, np.random.Generator) else substream(int(seed))


def _request_size(remaining: int, p: float) -> int:
    """Exponentials drawn per request: the expected successes among the
    `remaining` trials, plus 2 % and 64 spare, and at least 1024."""
    return max(1024, int(remaining * p * 1.02) + 64)


def _bernoulli_positions(rng: np.random.Generator, count: int,
                         p: float) -> Iterator[np.ndarray]:
    """Sorted positions of successes in `count` Bernoulli(p) trials, yielded
    in int64 blocks of at most _BLOCK positions.

    Gaps between successes are iid Geometric(p), sampled by exact inversion
    of unit exponentials (floor(E / -log1p(-p)) + 1); distributionally
    identical to `count` independent coin flips.  Each request of
    _request_size exponentials is drawn in full, block by block, and the
    overshoot past `count` is discarded, so the stream and the final `rng`
    state do not depend on the block size.  Exhaust the iterator before
    drawing from `rng` again.
    """
    if count <= 0 or p <= 0.0:
        return
    if p >= 1.0:
        for lo in range(0, count, _BLOCK):
            yield np.arange(lo, min(lo + _BLOCK, count), dtype=np.int64)
        return
    lam = -math.log1p(-p)
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
            np.floor(piece, out=piece)
            gaps = piece.astype(np.int64)
            gaps += 1
            gaps[0] += last
            np.cumsum(gaps, out=gaps)
            last = int(gaps[-1])
            yield gaps[:np.searchsorted(gaps, count)] if last >= count else gaps


def _row_starts(n: int) -> np.ndarray:
    """Start of row u in the linear index over pairs (u, v), u < v."""
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=starts[1:])
    return starts


def _pairs_from_index(pos: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a sorted block of linear pair indices to (u, v), given the
    n = starts.size row starts (_row_starts(n)).

    v = pos - (starts[u] - u - 1).  Only the rows r0..r1 that the block
    spans are searched, from the smaller side: below 2 indices per row
    (about where the two costs cross), each index among those row starts;
    otherwise each row start among the indices, expanding per-row counts
    with np.repeat."""
    n = starts.size
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    if pos.size == 0:
        return np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)
    r0, r1 = np.searchsorted(starts, pos[[0, -1]], side="right") - 1
    span = starts[r0:r1 + 1]
    if pos.size < 2 * span.size:
        u = np.searchsorted(span, pos, side="right")
        u += r0 - 1
        shift = starts[u]
        shift -= u
        shift -= 1
    else:
        counts = np.diff(np.searchsorted(pos, span), append=pos.size)
        u = np.repeat(np.arange(r0, r1 + 1, dtype=dtype), counts)
        shift = np.repeat(span - np.arange(r0 + 1, r1 + 2), counts)
    v = pos - shift
    return u.astype(dtype, copy=False), v.astype(dtype)


def gen_gnp(n: int, p: float, seed) -> Graph:
    """G(n,p): each of the n(n-1)/2 pairs is an edge independently with
    probability p.  Deterministic given (n, p, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = _rng(seed)
    count = n * (n - 1) // 2
    starts = _row_starts(n)
    # room for the first request's positions: the untouched tail is never
    # written, so its pages stay unmapped; a second request grows the arrays
    cap = count if p >= 1.0 else _request_size(count, p)
    u = np.empty(cap, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    v = np.empty_like(u)
    m = 0
    for pos in _bernoulli_positions(rng, count, p):
        if m + pos.size > u.size:
            u, v = (np.concatenate((a[:m], np.empty_like(a))) for a in (u, v))
        u[m:m + pos.size], v[m:m + pos.size] = _pairs_from_index(pos, starts)
        m += pos.size
    del starts  # n int64 row starts: free them before Graph adds its O(n) degrees
    return Graph.from_arrays(n, u[:m], v[:m], presorted=True, _trusted=True)


def gen_gnm(n: int, m: int, seed) -> Graph:
    """G(n,m): uniform over m-edge graphs, via Floyd's subset sampling of
    pair indices.  Deterministic given (n, m, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = n * (n - 1) // 2
    if not (0 <= m <= count):
        raise MTooLargeError(f"m={m} exceeds pair count {count}")
    rng = _rng(seed)
    chosen: set[int] = set()
    for j in range(count - m, count):
        t = int(rng.integers(0, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    pos = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    pos.sort()
    u, v = _pairs_from_index(pos, _row_starts(n))
    return Graph.from_arrays(n, u, v, presorted=True, _trusted=True)


def gen_planted(n: int, alpha: float, beta: float, k: int, seed) -> LabeledGraph:
    """Planted k-block graph: labels iid uniform on 0..k-1; a pair is an edge
    with probability alpha/n when the labels agree and beta/n otherwise.
    Labels are retained in the output (callers may discard them)."""
    if k < 2:
        raise ValueError("planted model needs k >= 2 blocks")
    if not (0.0 < alpha <= n):
        raise RateOutOfRangeError("alpha/n must lie in (0, 1]")
    if not (0.0 <= beta <= n):
        raise RateOutOfRangeError("beta/n must lie in [0, 1]")
    rng = _rng(seed)
    labels = rng.integers(0, k, size=n)
    blocks = [np.flatnonzero(labels == i) for i in range(k)]
    p_in = alpha / n
    p_out = beta / n
    eu_chunks: list[np.ndarray] = []
    ev_chunks: list[np.ndarray] = []
    for i in range(k):
        verts_i = blocks[i]
        s_i = verts_i.size
        # within-block pairs
        starts = _row_starts(s_i)
        for pos in _bernoulli_positions(rng, s_i * (s_i - 1) // 2, p_in):
            lu, lv = _pairs_from_index(pos, starts)
            eu_chunks.append(verts_i[lu])
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
    if eu_chunks:
        eu = np.concatenate(eu_chunks)
        ev = np.concatenate(ev_chunks)
    else:
        eu = np.empty(0, dtype=np.int64)
        ev = np.empty(0, dtype=np.int64)
    graph = Graph.from_arrays(n, eu, ev, presorted=False)
    return LabeledGraph(graph=graph, labels=labels, k=k)


def sample(spec: GeneratorSpec):
    """Draw from a GeneratorSpec: a Graph for GNP/GNM, a LabeledGraph for
    PLANTED."""
    if spec.model is Model.GNP:
        return gen_gnp(spec.n, spec.p, spec.seed)
    if spec.model is Model.GNM:
        return gen_gnm(spec.n, spec.m, spec.seed)
    return gen_planted(spec.n, spec.alpha, spec.beta, spec.k, spec.seed)
