"""Spectral module: dense spectrum, deflated power iteration, modularity
bound, discrepancy audit, and the pruning rule."""

import itertools
import math

import numpy as np
import pytest

from modgraph import graph as graph_module, spectral
from modgraph.generators import gen_gnp, substream
from modgraph.graph import (EmptyGraphError, Graph, Partition, induced_subgraph,
                            modularity_score)
from modgraph.oracle import exact_modularity
from modgraph.spectral import (IsolatedVertexError, TooLargeError,
                               _normalized_laplacian, discrepancy_audit,
                               extremal_gap, prune, spectral_summary,
                               spectral_upper_witness)

from _samplers import (random_connected_graph, random_graph_sized,
                       random_partition, make_rng)


def _non_isolated(g):
    return induced_subgraph(g, np.flatnonzero(g.deg > 0))


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


BATTERY = [
    complete(2), complete(4), complete(6), cycle(4), cycle(5), cycle(7),
    path(4), path(7),
    Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),          # star
    Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}
]


class TestSpectralSummary:
    def test_k2(self):
        s = spectral_summary(complete(2))
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert s.gap == pytest.approx(1.0, abs=1e-12)

    def test_k4(self):
        s = spectral_summary(complete(4))
        assert np.allclose(s.eigenvalues, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-10)
        assert s.gap == pytest.approx(1 / 3, abs=1e-10)

    def test_c4(self):
        s = spectral_summary(cycle(4))
        assert np.allclose(s.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-10)
        assert s.gap == pytest.approx(1.0, abs=1e-10)

    def test_disconnected_flagged(self):
        s = spectral_summary(Graph(4, [(0, 1), (2, 3)]))
        assert not s.connected
        assert s.gap == pytest.approx(1.0, abs=1e-10)

    def test_errors(self, monkeypatch):
        with pytest.raises(IsolatedVertexError):
            spectral_summary(Graph(3, [(0, 1)]))
        with pytest.raises(EmptyGraphError):
            spectral_summary(Graph(2, []))
        # the perfect matching on DENSE_CAP + 2 vertices is refused before
        # any matrix is built
        monkeypatch.setattr(spectral, "_normalized_laplacian",
                            lambda g: pytest.fail("built the dense matrix"))
        matching = Graph(4002, [(2 * i, 2 * i + 1) for i in range(2001)])
        with pytest.raises(TooLargeError, match="^n=4002 exceeds dense cap 4000$"):
            spectral_summary(matching)

    def test_eigenvalue_ranges_and_trace(self):
        for i in range(40):
            g = _non_isolated(random_graph_sized(make_rng(20, i), 3, 14))
            if g.m == 0:
                continue
            s = spectral_summary(g)
            w = s.eigenvalues
            assert w[0] >= -1e-8 and abs(w[0]) <= 1e-8
            assert w[-1] <= 2 + 1e-8
            assert 0 <= s.gap <= 1 + 1e-8
            # trace of L is n
            assert abs(w.sum() - g.n) <= 1e-6 * g.n

    def test_eigenpair_residuals(self):
        # the dense route must return true eigenpairs: residual <= 1e-7
        for g in BATTERY:
            lap = _normalized_laplacian(g)
            w, vecs = np.linalg.eigh(lap)
            for j in range(g.n):
                r = np.linalg.norm(lap @ vecs[:, j] - w[j] * vecs[:, j])
                assert r <= 1e-7 * np.linalg.norm(vecs[:, j])


class TestExtremalGap:
    def test_k4_to_tol(self):
        est = extremal_gap(complete(4), tol=1e-6)
        assert est.converged
        assert est.value == pytest.approx(1 / 3, abs=1e-6)

    def test_two_k2_disconnected(self):
        assert extremal_gap(Graph(4, [(0, 1), (2, 3)]),
                            tol=1e-6).value == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_dense_on_battery(self):
        for g in BATTERY:
            dense = spectral_summary(g).gap
            assert extremal_gap(g, tol=1e-6).value == pytest.approx(
                dense, abs=2e-6)

    def test_agrees_with_dense_on_random(self):
        for i in range(20):
            g = random_connected_graph(make_rng(21, i), 5, 40)
            dense = spectral_summary(g).gap
            assert extremal_gap(g, tol=1e-6).value == pytest.approx(
                dense, abs=2e-6)

    @pytest.mark.parametrize("tol", [0, -1e-3, float("nan")])
    def test_tol_not_positive(self, tol):
        # a tol that is not > 0 would run to the iteration cap
        with pytest.raises(ValueError, match="^tol must be positive"):
            extremal_gap(complete(4), tol=tol)

    def test_no_convergence_reports_estimate(self, monkeypatch):
        monkeypatch.setattr(spectral, "_GAP_MAX_ITER", 4)
        g = random_connected_graph(make_rng(22), 20, 30)
        est = extremal_gap(g, tol=1e-12)
        assert not est.converged and est.iterations == 4
        assert 0.0 <= est.value <= 1.0 + 1e-8
        assert est.residual > 0.0

    def test_pinned_on_gnp(self):
        # recorded from the COO-built operator: the sort-free CSR sums every
        # row in the same column order, so the iteration is bit for bit the same
        g = gen_gnp(5000, 0.02, substream(20250811, 0, 0))
        est = extremal_gap(g, tol=1e-3)
        assert (est.value, est.iterations, est.residual) == (
            0.19588237036535283, 106, 0.00038562075579059074)

    @pytest.mark.slow
    def test_gnp_gap_below_half(self):
        # 5 / sqrt(np) = 0.5 bound at n=2000, np=100, >= 95/100 seeds
        n, npv = 2000, 100.0
        good = 0
        for i in range(100):
            g = _non_isolated(gen_gnp(n, npv / n, substream(901, i)))
            est = extremal_gap(g, tol=1e-2)
            good += est.value <= 5.0 / math.sqrt(npv)
        assert good >= 95


def _gap_bound(g, p):
    """Spectral upper bound gap * (1 - 1/k) on the score of a k-part partition."""
    return spectral_summary(g).gap * (1 - 1 / p.k)


class TestModularityBound:
    def test_k4_balanced(self):
        bound = _gap_bound(complete(4), Partition([0, 0, 1, 1]))
        assert bound == pytest.approx(1 / 6, abs=1e-10)
        q = modularity_score(complete(4), Partition([0, 0, 1, 1])).score
        assert q <= 0 <= bound

    def test_trivial_partition(self):
        g = path(4)
        trivial = Partition(np.zeros(4, dtype=int))
        assert _gap_bound(g, trivial) == 0.0
        assert modularity_score(g, trivial).score == 0.0

    def test_p4_split(self):
        g = path(4)
        p = Partition([0, 0, 1, 1])
        assert modularity_score(g, p).score <= _gap_bound(g, p) + 1e-8

    def test_random_partitions_bounded(self):
        for i in range(40):
            rng = make_rng(23, i)
            g = random_connected_graph(rng, 4, 12)
            p = random_partition(rng, g.n)
            q = modularity_score(g, p).score
            assert q <= _gap_bound(g, p) + 1e-8

    def test_oracle_below_gap(self):
        for i in range(30):
            g = random_connected_graph(make_rng(24, i), 4, 9)
            assert float(exact_modularity(g).q_star) <= spectral_summary(g).gap + 1e-8


class TestDiscrepancyAudit:
    def test_k4_subset_example(self):
        # |S| = 2 in K4: e(S, ~S) = 4 >= (2/3) * 6 * 6 / 12 = 2
        assert discrepancy_audit(complete(4)) >= -1e-8

    def test_empty_and_full_have_zero_slack(self):
        # exhaustive audit includes S = empty and S = V with slack exactly 0
        g = path(4)
        assert discrepancy_audit(g) <= 0.0 + 1e-12
        assert discrepancy_audit(g) >= -1e-8

    def test_random_graphs_exhaustive(self):
        for i in range(60):
            g = _non_isolated(random_graph_sized(make_rng(25, i), 3, 12))
            if g.m == 0:
                continue
            assert discrepancy_audit(g) >= -1e-8

    def test_above_exhaustive_limit(self, monkeypatch):
        # past 20 vertices there is no audit, and no dense solve is spent
        monkeypatch.setattr(spectral, "spectral_summary", lambda g: pytest.fail("solved"))
        with pytest.raises(TooLargeError, match="n=21"):
            discrepancy_audit(cycle(21))


class TestPrune:
    def test_regular_graph_untouched(self, monkeypatch):
        # every vertex meets the threshold: no adjacency is built
        builds = []
        build = graph_module._symmetric_csr
        monkeypatch.setattr(graph_module, "_symmetric_csr",
                            lambda *args: builds.append(args) or build(*args))
        g = cycle(8)
        pr = prune(g, p_model=0.5)
        assert (pr.kept.tolist(), pr.removed_edges, pr.rounds) == (list(range(8)), 0, 0)
        assert pr.kept.dtype == np.flatnonzero([True]).dtype
        assert builds == []
        # the count sees a build: a vertex below the threshold needs one
        prune(Graph(9, [(i, (i + 1) % 8) for i in range(8)] + [(3, 8)]), p_model=0.5)
        assert len(builds) == 1

    def test_one_vertex_below_threshold(self):
        # a pendant vertex 8 on a cycle: threshold 2 drops it alone
        g = Graph(9, [(i, (i + 1) % 8) for i in range(8)] + [(3, 8)])
        pr = prune(g, p_model=0.5)
        assert (pr.kept.tolist(), pr.removed_edges, pr.rounds) == (list(range(8)), 1, 0)

    def test_star_leaves_dropped(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        pr = prune(star, 0.9)
        assert pr.kept.tolist() == [0]
        assert pr.removed_edges == 5

    def test_neighbor_cap_rule(self):
        # hub 0 with 100 leaves and hub 101 with 99 leaves, both joined to the
        # clique 201..204: the degree rule (threshold 3) drops every leaf,
        # then 100 removed neighbours meet the cap and take hub 0; hub 101,
        # one short, stays with the clique
        clique = range(201, 205)
        edges = ([(0, i) for i in range(1, 101)] + [(101, i) for i in range(102, 201)]
                 + [(h, c) for h in (0, 101) for c in clique]
                 + list(itertools.combinations(clique, 2)))
        g = Graph(205, edges)
        pr = prune(g, p_model=6 / 204)
        assert pr.kept.tolist() == [101, *clique]
        assert pr.rounds == 1 and pr.removed_edges == 100 + 99 + 4

    def test_may_remove_everything(self):
        # leaves fall to the degree rule, then the hub to the neighbour cap
        star = Graph(101, [(0, i) for i in range(1, 101)])
        pr = prune(star, p_model=1.0)
        assert pr.kept.size == 0 and pr.removed_edges == 100 and pr.rounds == 1

    @pytest.mark.slow
    def test_gnp_removed_fraction_small(self):
        # n=5000, np=50: removed |E'|/m <= 0.01 in >= 95/100 seeds
        n, npv = 5000, 50.0
        good = 0
        for i in range(100):
            g = gen_gnp(n, npv / n, substream(907, i))
            pr = prune(g, npv / n)
            good += pr.removed_edges / g.m <= 0.01
        assert good >= 95


class TestUpperWitness:
    def test_upper_bounds_oracle_small(self):
        # validity end to end at oracle scale: q* <= witness + 1e-8
        for i in range(20):
            g = random_connected_graph(make_rng(26, i), 5, 9)
            w = spectral_upper_witness(g, p_model=0.5, method="dense")
            assert float(exact_modularity(g).q_star) <= w.value + 1e-8

    def test_degenerate_prune_returns_two(self):
        star = Graph(101, [(0, i) for i in range(1, 101)])
        w = spectral_upper_witness(star, p_model=1.0)
        assert w.value == 2.0 and w.kept_vertices == 0

    def test_extremal_matches_dense_route(self):
        g = gen_gnp(400, 30 / 400, substream(909))
        wd = spectral_upper_witness(g, 30 / 400, method="dense")
        we = spectral_upper_witness(g, 30 / 400, method="extremal", tol=1e-6)
        assert we.value == pytest.approx(wd.value, abs=1e-5)
        assert we.removed_edges == wd.removed_edges

    def test_dense_respects_cap(self):
        # the kept component has more than DENSE_CAP = 4000 vertices: the
        # dense route refuses it before building a matrix
        g = gen_gnp(4500, 30 / 4500, substream(909))
        with pytest.raises(TooLargeError, match="exceeds dense cap 4000"):
            spectral_upper_witness(g, 30 / 4500, method="dense")

    def test_unknown_method_rejected(self):
        g = gen_gnp(400, 30 / 400, substream(909))
        with pytest.raises(ValueError, match="method must be one of auto, dense, "
                                             "extremal, not 'dens'"):
            spectral_upper_witness(g, 30 / 400, method="dens")
