"""Normalized-Laplacian spectrum and the spectral route to modularity bounds.

The normalized Laplacian is L = I - D^{-1/2} A D^{-1/2}; its eigenvalues
live in [0, 2] with lambda_0 = 0, and the spectral gap is
max(|1 - lambda_1|, |lambda_{n-1} - 1|).  Any k-part partition scores at
most gap * (1 - 1/k), and every vertex subset S satisfies the discrepancy
inequality e(S, ~S) >= (1 - gap) vol(S) vol(~S) / vol(G).

Isolated vertices are a hard error here (D^{-1/2} is undefined); strip
them first with graph.strip_isolated.  Disconnected graphs are allowed:
the gap is then exactly 1, and the summary flags it.

Two routes to the gap are kept deliberately independent: a dense LAPACK
solve for n up to DENSE_CAP, and an in-house deflated power iteration on
D^{-1/2} A D^{-1/2} (the known unit eigenvector D^{1/2} 1 / sqrt(2m) is
projected out analytically) for large sparse graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import substream
from .graph import EmptyGraphError, Graph, connected_components, induced_subgraph

__all__ = [
    "DENSE_CAP",
    "SpectralSummary",
    "PruneResult",
    "GapEstimate",
    "UpperWitness",
    "IsolatedVertexError",
    "TooLargeError",
    "NoConvergenceError",
    "normalized_laplacian",
    "spectral_summary",
    "extremal_gap",
    "spectral_gap_extremal",
    "discrepancy_audit",
    "prune",
    "spectral_upper_witness",
]

DENSE_CAP = 4000


class IsolatedVertexError(ValueError):
    """D^{-1/2} undefined: the graph has a degree-0 vertex."""


class TooLargeError(ValueError):
    """Graph exceeds the dense-solver cap (or an oracle cap)."""


class NoConvergenceError(RuntimeError):
    """Power iteration hit its cap; carries the best estimate so far."""

    def __init__(self, best_estimate: float, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best estimate {best_estimate:.6g}, residual {residual:.3g})")
        self.best_estimate = best_estimate
        self.iterations = iterations
        self.residual = residual


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
    2 |E'| / m robustness correction for every deleted edge."""

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
            "graph has isolated vertices; strip them first (graph.strip_isolated)")


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Dense L = I - D^{-1/2} A D^{-1/2}."""
    _check_spectral_pre(g)
    inv_sqrt = 1.0 / np.sqrt(g.deg.astype(np.float64))
    lap = np.eye(g.n)
    w = inv_sqrt[g.edge_u] * inv_sqrt[g.edge_v]
    lap[g.edge_u, g.edge_v] -= w
    lap[g.edge_v, g.edge_u] -= w
    return lap


def spectral_summary(g: Graph, cap: int = DENSE_CAP) -> SpectralSummary:
    """Full spectrum via the dense symmetric solver; n must be <= cap."""
    _check_spectral_pre(g)
    if g.n > cap:
        raise TooLargeError(f"n={g.n} exceeds dense cap {cap}; use the extremal path")
    eigenvalues = np.linalg.eigvalsh(normalized_laplacian(g))
    gap = max(abs(1.0 - eigenvalues[1]), abs(eigenvalues[-1] - 1.0))
    connected = connected_components(g).k == 1
    return SpectralSummary(eigenvalues=eigenvalues, gap=float(gap), connected=connected)


def _normalized_adjacency_operator(g: Graph):
    """Returns apply(x) computing D^{-1/2} A D^{-1/2} x via one sparse
    matvec (edge weights prescaled to 1/sqrt(d_u d_v))."""
    from scipy.sparse import csr_matrix

    inv_sqrt = 1.0 / np.sqrt(g.deg.astype(np.float64))
    w = inv_sqrt[g.edge_u] * inv_sqrt[g.edge_v]
    mat = csr_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([g.edge_u, g.edge_v]),
          np.concatenate([g.edge_v, g.edge_u]))),
        shape=(g.n, g.n))
    return mat.dot


def extremal_gap(g: Graph, tol: float = 1e-6, max_iter: int = 100_000,
                 seed: int = 0) -> GapEstimate:
    """Gap to additive accuracy ~tol by power iteration on the deflated
    operator B = D^{-1/2} A D^{-1/2} - v v^T, v = D^{1/2} 1 / sqrt(2m).

    Iterates x <- B^2 x; the Ritz value rho = ||Bx||^2 climbs to gap^2 and
    the residual ||B^2 x - rho x|| bounds the distance to a true
    eigenvalue, giving the stopping rule r / (2 sqrt(rho)) <= tol.
    """
    _check_spectral_pre(g)
    apply_m = _normalized_adjacency_operator(g)
    v = np.sqrt(g.deg.astype(np.float64) / (2.0 * g.m))

    def apply_b(x: np.ndarray) -> np.ndarray:
        y = apply_m(x)
        y -= v * (v @ x)
        return y

    rng = substream(seed, g.n, g.m)
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
    while iterations < max_iter:
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


def spectral_gap_extremal(g: Graph, tol: float = 1e-6,
                          max_iter: int = 100_000, seed: int = 0) -> float:
    """Gap via the iterative path; raises NoConvergenceError (carrying the
    best estimate) if the iteration cap is hit."""
    est = extremal_gap(g, tol=tol, max_iter=max_iter, seed=seed)
    if not est.converged:
        raise NoConvergenceError(est.value, est.iterations, est.residual)
    return est.value


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


def discrepancy_audit(g: Graph, samples: int = 2000, seed: int = 0,
                      exhaustive_limit: int = 20, cap: int = DENSE_CAP) -> float:
    """Minimum slack of e(S,~S) - (1-gap) vol(S) vol(~S) / vol(G) over
    audited subsets: exhaustive for n <= exhaustive_limit, else `samples`
    random subsets.  The discrepancy inequality makes the result >= 0, so
    an audit should never report materially negative slack.
    """
    summary = spectral_summary(g, cap=cap)
    lam = summary.gap
    vol_g = 2.0 * g.m
    coeff = (1.0 - lam) / vol_g
    if g.n <= exhaustive_limit:
        cut, vol = _subset_stats_exhaustive(g)
        slack = cut - coeff * vol * (2 * g.m - vol)
        return float(slack.min())
    rng = substream(seed)
    worst = 0.0  # S empty has slack exactly 0
    for _ in range(samples):
        member = rng.random(g.n) < 0.5
        vol_s = float(g.deg[member].sum())
        cut_s = float(np.count_nonzero(member[g.edge_u] != member[g.edge_v]))
        slack = cut_s - coeff * vol_s * (vol_g - vol_s)
        worst = min(worst, slack)
    return worst


def prune(g: Graph, p_model: float, degree_factor: float = 0.5,
          neighbor_cap: int = 100) -> PruneResult:
    """Two-stage vertex deletion from the spectral-upper-bound pipeline:
    first drop every vertex of degree < degree_factor * (n-1) * p_model,
    then repeatedly drop the lowest-index kept vertex with at least
    neighbor_cap deleted neighbours, to a fixed point."""
    if not (0.0 < p_model <= 1.0):
        raise ValueError("p_model must lie in (0, 1]")
    threshold = degree_factor * (g.n - 1) * p_model
    kept = g.deg >= threshold
    indptr, nbrs = g.adjacency()
    removed_nbrs = np.zeros(g.n, dtype=np.int64)
    for vtx in np.flatnonzero(~kept):
        removed_nbrs[nbrs[indptr[vtx]:indptr[vtx + 1]]] += 1
    rounds = 0
    while True:
        over = np.flatnonzero(kept & (removed_nbrs >= neighbor_cap))
        if over.size == 0:
            break
        vtx = int(over[0])
        kept[vtx] = False
        neigh = nbrs[indptr[vtx]:indptr[vtx + 1]]
        removed_nbrs[neigh[kept[neigh]]] += 1
        rounds += 1
    removed_edges = int(np.count_nonzero(~kept[g.edge_u] | ~kept[g.edge_v]))
    return PruneResult(kept=np.flatnonzero(kept), removed_edges=removed_edges,
                       rounds=rounds)


def spectral_upper_witness(g: Graph, p_model: float, *,
                           degree_factor: float = 0.5, neighbor_cap: int = 100,
                           method: str = "auto", tol: float = 1e-3,
                           max_iter: int = 100_000, cap: int = DENSE_CAP,
                           seed: int = 0) -> UpperWitness:
    """Upper bound on q*(G): prune, keep the heaviest connected component H'
    of the core (edges of everything else count as deleted), then
    gap(H') + 2 |deleted| / m.

    Valid by the robustness bound for edge deletion plus the partition
    bound gap(H') >= q*(H'); restricting to one component keeps the gap
    informative when the pruned core falls apart.  method="dense" raises
    TooLargeError when H' has more than `cap` vertices.
    """
    if g.m == 0:
        raise EmptyGraphError("upper witness needs at least one edge")
    pruned = prune(g, p_model, degree_factor=degree_factor, neighbor_cap=neighbor_cap)
    core = induced_subgraph(g, pruned.kept)
    if core.m == 0:
        return UpperWitness(lambda_bar=0.0, removed_edges=g.m, removed_fraction=1.0,
                            value=2.0, converged=True, kept_vertices=0)
    comps = connected_components(core)
    edge_counts = np.bincount(comps.assign[core.edge_u], minlength=comps.k)
    heavy = int(np.argmax(edge_counts))
    sub = induced_subgraph(core, np.flatnonzero(comps.assign == heavy))
    removed = g.m - sub.m
    if method == "dense" or (method == "auto" and sub.n <= cap):
        lam = spectral_summary(sub, cap=cap).gap
        converged = True
    else:
        est = extremal_gap(sub, tol=tol, max_iter=max_iter, seed=seed)
        lam = est.value
        converged = est.converged
    return UpperWitness(lambda_bar=float(lam), removed_edges=removed,
                        removed_fraction=removed / g.m,
                        value=float(lam) + 2.0 * removed / g.m,
                        converged=converged, kept_vertices=sub.n)
