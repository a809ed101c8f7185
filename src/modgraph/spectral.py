"""Normalized-Laplacian spectrum and the spectral route to modularity bounds.

The normalized Laplacian is L = I - D^{-1/2} A D^{-1/2}; its eigenvalues
live in [0, 2] with lambda_0 = 0, and the spectral gap is
max(|1 - lambda_1|, |lambda_{n-1} - 1|).  Any k-part partition scores at
most gap * (1 - 1/k), and every vertex subset S satisfies the discrepancy
inequality e(S, ~S) >= (1 - gap) vol(S) vol(~S) / vol(G).

Isolated vertices are a hard error here (D^{-1/2} is undefined); take the
induced subgraph on the others first.  Disconnected graphs are allowed:
the gap is then exactly 1, and the summary flags it.

Two routes to the gap are kept deliberately independent: a dense LAPACK
solve for n up to DENSE_CAP, and an in-house deflated power iteration on
D^{-1/2} A D^{-1/2} (the known unit eigenvector D^{1/2} 1 / sqrt(2m) is
projected out analytically) for large sparse graphs.  `modgraph spectral`
follows the same size rule: dense up to DENSE_CAP vertices (or when the
full spectrum is asked for), extremal_gap at GAP_TOL above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import substream
from .graph import (EmptyGraphError, Graph, TooLargeError, _component_edges,
                    _edge_blocks, _symmetric_csr, connected_components,
                    induced_subgraph)

__all__ = [
    "DENSE_CAP",
    "GAP_TOL",
    "WITNESS_METHODS",
    "SpectralSummary",
    "PruneResult",
    "GapEstimate",
    "UpperWitness",
    "IsolatedVertexError",
    "spectral_summary",
    "extremal_gap",
    "discrepancy_audit",
    "prune",
    "spectral_upper_witness",
]

DENSE_CAP = 4000
GAP_TOL = 1e-6
_GAP_MAX_ITER = 200_000
WITNESS_METHODS = ("auto", "dense", "extremal")
WITNESS_TOL = 1e-3


class IsolatedVertexError(ValueError):
    """D^{-1/2} undefined: the graph has a degree-0 vertex."""


@dataclass(frozen=True)
class SpectralSummary:
    """Full sorted spectrum of L plus the gap; `connected` flags whether the
    gap-1 reading comes from a second zero eigenvalue."""

    eigenvalues: np.ndarray
    gap: float
    connected: bool

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


@dataclass(frozen=True)
class GapEstimate:
    value: float
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class PruneResult:
    """kept = surviving vertex indices; removed_edges = |E'|, the edges
    incident to deleted vertices; rounds = deletions made by the
    neighbour-cap loop (the initial degree sweep is round 0)."""

    kept: np.ndarray
    removed_edges: int
    rounds: int

    def __post_init__(self):
        self.kept.setflags(write=False)


@dataclass(frozen=True)
class UpperWitness:
    """Composed upper bound on q*: lambda_bar of the pruned core plus the
    2 |E'| / m robustness correction for every deleted edge.  With the
    extremal solver, `value` is not a proven upper bound: lambda_bar is then
    extremal_gap's estimate, which may read below the true gap by more than
    tol (see extremal_gap)."""

    lambda_bar: float
    removed_edges: int
    removed_fraction: float
    value: float
    converged: bool
    kept_vertices: int


def _check_spectral_pre(g: Graph) -> None:
    if g.m == 0:
        raise EmptyGraphError("spectral ops need at least one edge")
    if g.has_isolated_vertices():
        raise IsolatedVertexError(
            "graph has isolated vertices; take the induced subgraph on the others first")


def _normalized_laplacian(g: Graph) -> np.ndarray:
    """Dense L = I - D^{-1/2} A D^{-1/2}; g must pass _check_spectral_pre."""
    inv_sqrt = 1.0 / np.sqrt(g.deg.astype(np.float64))
    lap = np.eye(g.n)
    u, v = g.edge_u, g.edge_v
    w = inv_sqrt[u] * inv_sqrt[v]
    lap[u, v] -= w
    lap[v, u] -= w
    return lap


def spectral_summary(g: Graph) -> SpectralSummary:
    """Full spectrum via the dense symmetric solver; n above DENSE_CAP raises
    TooLargeError before any solve."""
    _check_spectral_pre(g)
    if g.n > DENSE_CAP:
        raise TooLargeError(f"n={g.n} exceeds dense cap {DENSE_CAP}")
    eigenvalues = np.linalg.eigvalsh(_normalized_laplacian(g))
    gap = max(abs(1.0 - eigenvalues[1]), abs(eigenvalues[-1] - 1.0))
    connected = connected_components(g).k == 1
    return SpectralSummary(eigenvalues=eigenvalues, gap=float(gap), connected=connected)


def _normalized_adjacency_operator(g: Graph):
    """Returns apply(x) computing D^{-1/2} A D^{-1/2} x via one sparse
    matvec (edge weights prescaled to 1/sqrt(d_u d_v))."""
    inv_sqrt = 1.0 / np.sqrt(g.deg.astype(np.float64))
    w = np.repeat(inv_sqrt, g.indptr[1:] - g.indptr[:-1])  # inv_sqrt[edge_u]
    w *= inv_sqrt[g.edge_v]
    return _symmetric_csr(g, w).dot


def extremal_gap(g: Graph, tol: float = GAP_TOL) -> GapEstimate:
    """Gap estimate by power iteration at tolerance tol on the deflated
    operator B = D^{-1/2} A D^{-1/2} - v v^T, v = D^{1/2} 1 / sqrt(2m).

    Iterates x <- B^2 x; the Ritz value rho = ||Bx||^2 climbs to gap^2 and
    the residual ||B^2 x - rho x|| bounds the distance to a true
    eigenvalue, giving the stopping rule r / (2 sqrt(rho)) <= tol, or
    unconverged after _GAP_MAX_ITER applications of B.  The start vector
    comes from substream(0, n, m), so the result depends on g alone.
    The residual bounds the distance to some eigenvalue of B^2, not to the
    largest, so the estimate may read more than tol low: 0.1953287 against
    the dense gap 0.1970893 on gen_gnp(5000, 100/5000, substream(20250811,
    0, 2)) at tol 1e-3.  No upper bound: see ROADMAP.md, a sound witness.
    A tol that is not > 0, which would run to the cap, raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol!r}")
    _check_spectral_pre(g)
    apply_m = _normalized_adjacency_operator(g)
    v = np.sqrt(g.deg.astype(np.float64) / (2.0 * g.m))

    def apply_b(x: np.ndarray) -> np.ndarray:
        y = apply_m(x)
        y -= v * (v @ x)
        return y

    rng = substream(0, g.n, g.m)
    x = rng.standard_normal(g.n)
    x -= v * (v @ x)
    norm = np.linalg.norm(x)
    if norm == 0.0:  # n = 2 degenerate start; any deflated direction works
        x = np.array([1.0, -1.0]) * v[::-1]
        norm = np.linalg.norm(x)
    x /= norm

    estimate = 0.0
    residual = np.inf
    iterations = 0
    while iterations < _GAP_MAX_ITER:
        y = apply_b(x)
        z = apply_b(y)
        iterations += 2
        rho = float(x @ z)  # = ||Bx||^2 >= 0
        estimate = float(np.sqrt(max(rho, 0.0)))
        residual = float(np.linalg.norm(z - rho * x))
        if estimate > 0.0 and residual / (2.0 * estimate) <= tol:
            return GapEstimate(estimate, True, iterations, residual)
        if estimate == 0.0 and residual <= tol:
            return GapEstimate(estimate, True, iterations, residual)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            # B annihilated x: restart from a fresh deflated direction
            x = rng.standard_normal(g.n)
            x -= v * (v @ x)
            x /= np.linalg.norm(x)
            continue
        x = z / nz
    return GapEstimate(estimate, False, iterations, residual)


def _subset_stats_exhaustive(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(cut, vol) for all 2^n subsets, index = characteristic bitmask."""
    n = g.n
    ids = np.arange(1 << n, dtype=np.int64)
    vol = np.zeros(1 << n, dtype=np.int64)
    for vtx in range(n):
        vol += ((ids >> vtx) & 1) * int(g.deg[vtx])
    cut = np.zeros(1 << n, dtype=np.int64)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        cut += ((ids >> u) ^ (ids >> v)) & 1
    return cut, vol


def discrepancy_audit(g: Graph) -> float:
    """Minimum slack of e(S,~S) - (1-gap) vol(S) vol(~S) / vol(G) over all
    2^n vertex subsets (n > 20 raises TooLargeError before any solve); the
    discrepancy inequality makes it >= 0 up to rounding."""
    if g.n > 20:
        raise TooLargeError(f"n={g.n} exceeds the exhaustive audit's limit of 20")
    lam = spectral_summary(g).gap
    coeff = (1.0 - lam) / (2.0 * g.m)
    cut, vol = _subset_stats_exhaustive(g)
    slack = cut - coeff * vol * (2 * g.m - vol)
    return float(slack.min())


def prune(g: Graph, p_model: float) -> PruneResult:
    """Two-stage vertex deletion from the spectral-upper-bound pipeline:
    first drop every vertex of degree < (n-1) * p_model / 2, then
    repeatedly drop the lowest-index kept vertex with at least 100
    deleted neighbours, to a fixed point.  No adjacency is built when no
    vertex falls below the threshold."""
    if not (0.0 < p_model <= 1.0):
        raise ValueError("p_model must lie in (0, 1]")
    threshold = 0.5 * (g.n - 1) * p_model
    kept = g.deg >= threshold
    if kept.all():
        return PruneResult(kept=np.arange(g.n), removed_edges=0, rounds=0)
    indptr, nbrs = g.adjacency()
    removed_nbrs = np.zeros(g.n, dtype=np.int64)
    for vtx in np.flatnonzero(~kept):
        removed_nbrs[nbrs[indptr[vtx]:indptr[vtx + 1]]] += 1
    rounds = 0
    while True:
        over = np.flatnonzero(kept & (removed_nbrs >= 100))
        if over.size == 0:
            break
        vtx = int(over[0])
        kept[vtx] = False
        neigh = nbrs[indptr[vtx]:indptr[vtx + 1]]
        removed_nbrs[neigh[kept[neigh]]] += 1
        rounds += 1
    removed_edges = g.m - sum(
        int(np.count_nonzero(np.repeat(kept[rows], counts) & kept[v]))
        for rows, counts, v in _edge_blocks(g))
    return PruneResult(kept=np.flatnonzero(kept), removed_edges=removed_edges,
                       rounds=rounds)


def spectral_upper_witness(g: Graph, p_model: float, *, method: str = "auto",
                           tol: float = WITNESS_TOL) -> UpperWitness:
    """Upper bound on q*(G): prune, keep the heaviest connected component H'
    of the core (edges of everything else count as deleted), then
    gap(H') + 2 |deleted| / m.

    Valid by the robustness bound for edge deletion plus the partition
    bound gap(H') >= q*(H'); restricting to one component keeps the gap
    informative when the pruned core falls apart.  method="dense" raises
    TooLargeError when H' has more than DENSE_CAP vertices.
    """
    if method not in WITNESS_METHODS:
        raise ValueError(f"method must be one of {', '.join(WITNESS_METHODS)}, "
                         f"not {method!r}")
    if g.m == 0:
        raise EmptyGraphError("upper witness needs at least one edge")
    pruned = prune(g, p_model)
    core = induced_subgraph(g, pruned.kept)
    if core.m == 0:
        return UpperWitness(lambda_bar=0.0, removed_edges=g.m, removed_fraction=1.0,
                            value=2.0, converged=True, kept_vertices=0)
    comps = connected_components(core)
    heavy = int(np.argmax(_component_edges(core, comps)))
    sub = induced_subgraph(core, np.flatnonzero(comps.assign == heavy))
    removed = g.m - sub.m
    if method == "dense" or (method == "auto" and sub.n <= DENSE_CAP):
        lam = spectral_summary(sub).gap
        converged = True
    else:
        est = extremal_gap(sub, tol=tol)
        lam = est.value
        converged = est.converged
    return UpperWitness(lambda_bar=float(lam), removed_edges=removed,
                        removed_fraction=removed / g.m,
                        value=float(lam) + 2.0 * removed / g.m,
                        converged=converged, kept_vertices=sub.n)
