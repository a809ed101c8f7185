"""Seeded random-instance samplers shared across the test modules."""

from fractions import Fraction

import numpy as np

from modgraph.generators import substream
from modgraph.graph import EmptyGraphError, Graph, Partition, _score_counts


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Small dense-ish Bernoulli graph straight from rng (no substream)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_graph_sized(rng: np.random.Generator, n_lo: int, n_hi: int,
                       min_edges: int = 1) -> Graph:
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.2, 0.8))
        g = random_graph(rng, n, p)
        if g.m >= min_edges:
            return g


def random_connected_graph(rng: np.random.Generator, n_lo: int, n_hi: int) -> Graph:
    from modgraph.graph import connected_components
    while True:
        g = random_graph_sized(rng, n_lo, n_hi)
        if connected_components(g).k == 1:
            return g


def random_partition(rng: np.random.Generator, n: int) -> Partition:
    k = int(rng.integers(1, n + 1))
    return Partition.from_labels(rng.integers(0, k, size=n))


def make_rng(*key: int) -> np.random.Generator:
    return substream(0x5EED_CAFE, *key)


def modularity_exact(g: Graph, p: Partition) -> Fraction:
    """Score as an exact rational (denominator divides 4m^2): the reference
    that the float scores and the oracle's q* are checked against."""
    if g.m == 0:
        raise EmptyGraphError("modularity score undefined for empty graphs")
    e_in, ssq = _score_counts(g, p)
    return Fraction(4 * g.m * e_in - ssq, 4 * g.m * g.m)
