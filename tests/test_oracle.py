"""Oracle: exact fixtures, tie enumeration, k-restricted maxima, the
vectorized scan against the recursive reference, structure predicates,
robustness bounds, and the dual root."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modgraph import oracle
from modgraph.experiments import EXPERIMENTS
from modgraph.graph import EmptyGraphError, Graph, Partition
from modgraph.oracle import (COutOfRangeError, exact_modularity,
                             optimal_connectivity_check, resolution_limit_check,
                             robustness_check, solve_dual)
from modgraph.spectral import TooLargeError

from _samplers import (make_rng, modularity_exact, random_connected_graph,
                       random_graph_sized)


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def matching(m):
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147,
        10: 115975}


def stirling2(n, k):
    """Partitions of n labelled vertices into exactly k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


# The recursive bitmask scan the oracle ran before its table form, kept as
# the reference the vectorized scan must match bit for bit.
def _reference_masks(g, vertices):
    index = {int(v): i for i, v in enumerate(vertices)}
    masks = [0] * len(vertices)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        iu = index.get(u)
        iv = index.get(v)
        if iu is not None and iv is not None:
            masks[iu] |= 1 << iv
            masks[iv] |= 1 << iu
    return masks, [int(g.deg[v]) for v in vertices]


def _reference_scan(masks, degs, m, max_parts):
    nv = len(masks)
    four_m = 4 * m
    best_num = None
    best = []
    scanned = 0
    assign = [0] * nv
    block_mask = [0] * (nv + 1)
    block_vol = [0] * (nv + 1)

    def rec(i, nblocks, e_in, ssq):
        nonlocal best_num, scanned
        if i == nv:
            scanned += 1
            num = four_m * e_in - ssq
            if best_num is None or num > best_num:
                best_num = num
                best.clear()
                best.append(tuple(assign))
            elif num == best_num:
                best.append(tuple(assign))
            return
        adj = masks[i]
        d = degs[i]
        for b in range(nblocks):
            de = (adj & block_mask[b]).bit_count()
            vol = block_vol[b]
            assign[i] = b
            block_mask[b] |= 1 << i
            block_vol[b] += d
            rec(i + 1, nblocks, e_in + de, ssq + 2 * vol * d + d * d)
            block_mask[b] &= ~(1 << i)
            block_vol[b] -= d
        if nblocks < max_parts:
            assign[i] = nblocks
            block_mask[nblocks] = 1 << i
            block_vol[nblocks] = d
            rec(i + 1, nblocks + 1, e_in, ssq + d * d)
            block_mask[nblocks] = 0
            block_vol[nblocks] = 0

    if nv == 0:
        return 0, [()], 1
    rec(0, 0, 0, 0)
    return best_num, best, scanned


def _reference_attach(g, active, assign):
    labels = np.full(g.n, -1, dtype=np.int64)
    labels[active] = assign
    next_id = (max(assign) + 1) if assign else 0
    for vtx in np.flatnonzero(labels == -1):
        labels[vtx] = next_id
        next_id += 1
    return Partition.from_labels(labels)


def reference_scan(g, max_parts):
    active = np.flatnonzero(g.deg > 0)
    masks, degs = _reference_masks(g, active)
    return _reference_scan(masks, degs, g.m, max_parts)


def assert_scan_matches(g, max_parts):
    """(numerator, maximizers in order, scanned count) of the vectorized
    scan equal the reference's; returns them."""
    want = reference_scan(g, max_parts)
    num, best, scanned = oracle._scan_partitions(g, np.flatnonzero(g.deg > 0), max_parts)
    assert (num, [tuple(a.tolist()) for a in best], scanned) == want
    return want


def assert_matches_reference(g):
    """The scan at every block cap, every q_<=k with its maximizers and the
    OracleResult equal the reference's."""
    active = np.flatnonzero(g.deg > 0)
    four_m2 = 4 * g.m * g.m
    for k in range(1, max(active.size, 1) + 1):
        num, best, scanned = assert_scan_matches(g, k)
        if g.m:
            rk = exact_modularity(g, max_parts=k)
            assert rk.q_star == Fraction(num, four_m2)
            assert rk.partitions_scanned == scanned
            assert [p.assign.tolist() for p in rk.optimal_partitions] == \
                [_reference_attach(g, active, a).assign.tolist() for a in best]
    r = exact_modularity(g)
    if g.m == 0:
        assert r.q_star == 0 and r.partitions_scanned == 0
        assert r.optimal_partitions == (Partition(np.arange(g.n)),)
        return
    assert r.q_star == Fraction(num, four_m2)
    assert r.partitions_scanned == scanned
    assert [p.assign.tolist() for p in r.optimal_partitions] == \
        [_reference_attach(g, active, a).assign.tolist() for a in best]


class TestExactModularity:
    def test_complete_graphs_zero(self):
        for n in range(3, 7):
            r = exact_modularity(complete(n))
            assert r.q_star == 0
            # the one-part partition is the unique maximizer
            assert len(r.optimal_partitions) == 1
            assert r.optimal_partitions[0].k == 1

    def test_disjoint_edges(self):
        for m in range(1, 5):
            r = exact_modularity(matching(m))
            assert r.q_star == Fraction(m - 1, m)

    def test_matching_maximizer_unique_components(self):
        from modgraph.graph import connected_components
        g = matching(3)
        r = exact_modularity(g)
        assert r.optimal_partitions == (connected_components(g),)

    def test_p4(self):
        assert exact_modularity(path(4)).q_star == Fraction(1, 6)

    def test_edge_plus_isolated(self):
        r = exact_modularity(Graph(4, [(0, 1)]))
        assert r.q_star == 0
        # isolated vertices come back as singleton parts
        assert r.optimal_partitions[0].part_sizes().tolist() == [2, 1, 1]

    def test_empty_graph_convention(self):
        r = exact_modularity(Graph(3, []))
        assert r.q_star == 0 and r.partitions_scanned == 0
        assert r.optimal_partitions[0].k == 3

    def test_scan_counts_are_bell_numbers(self):
        for n in range(2, 11):
            g = complete(n)
            assert exact_modularity(g).partitions_scanned == BELL[n]

    def test_capped_scan_counts_are_stirling_sums(self):
        # partitions with at most k blocks: S(n, 1) + ... + S(n, k)
        for n in range(2, 11):
            g = complete(n)
            for k in range(1, n + 1):
                _, _, scanned = oracle._scan_partitions(g, np.arange(n), k)
                assert scanned == sum(stirling2(n, j) for j in range(1, k + 1))

    def test_cap(self):
        g = matching(6)  # 12 non-isolated vertices
        with pytest.raises(TooLargeError, match="exceed the oracle cap 10$"):
            exact_modularity(g)

    def test_cycle_values_monotone(self):
        # hand-checked small-cycle maxima; the trend climbs toward
        # 1 - 2/sqrt(n)
        expected = {3: Fraction(0), 4: Fraction(0), 5: Fraction(2, 25),
                    6: Fraction(1, 6), 7: Fraction(11, 49), 8: Fraction(9, 32),
                    9: Fraction(1, 3)}
        prev = Fraction(-1)
        for n, want in expected.items():
            got = exact_modularity(cycle(n)).q_star
            assert got == want
            assert got >= prev
            prev = got

    def test_every_maximizer_scores_q_star(self):
        for i in range(40):
            g = random_graph_sized(make_rng(30, i), 2, 8)
            r = exact_modularity(g)
            for part in r.optimal_partitions:
                assert modularity_exact(g, part) == r.q_star


@pytest.fixture
def from_labels_calls(monkeypatch):
    """Counts Partition.from_labels calls, the one way the oracle builds a
    maximizer."""
    calls = []
    build = Partition.from_labels.__func__

    def counted(cls, labels):
        calls.append(1)
        return build(cls, labels)
    monkeypatch.setattr(Partition, "from_labels", classmethod(counted))
    return calls


class TestLazyMaximizers:
    def test_q_star_builds_no_partition(self, from_labels_calls):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 isolated
        r = exact_modularity(g)
        assert r.q_star == Fraction(4, 9) and r.partitions_scanned == 52
        assert from_labels_calls == []
        parts = r.optimal_partitions
        assert len(from_labels_calls) == len(parts) >= 1
        assert r.optimal_partitions is parts
        assert len(from_labels_calls) == len(parts)

    def test_concentration_task_builds_no_partition(self, from_labels_calls):
        exp = EXPERIMENTS["concentration"]
        rec = exp.task(dict(exp.option_defaults), 41, 0, {"n": 8, "m": 10}, 0)
        assert 0.0 <= rec["q_star"] < 1.0
        assert from_labels_calls == []

    def test_equality_and_repr(self):
        g = path(4)
        r = exact_modularity(g)
        assert r == exact_modularity(g) and hash(r) == hash(exact_modularity(g))
        assert r != exact_modularity(Graph(5, [(0, 1), (1, 2), (2, 3)]))
        assert repr(r) == "OracleResult(q_star=Fraction(1, 6), partitions_scanned=15)"


class TestScanMatchesReference:
    def test_every_cap_up_to_ten_active_vertices(self):
        # per active count: empty, complete and two random graphs, each
        # with isolated vertices mixed in
        for nv in range(0, 11):
            rng = make_rng(38, nv)
            graphs = [Graph(nv + 2, []), complete(max(nv, 1))]
            for _ in range(2 if nv <= 8 else 1):
                edges = [e for e in itertools.combinations(range(nv), 2)
                         if rng.random() < 0.5]
                labels = rng.permutation(nv + 3)
                graphs.append(Graph(nv + 3, [(labels[u], labels[v]) for u, v in edges]))
            for g in graphs:
                assert_matches_reference(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))))
    def test_random_graphs(self, case):
        n, present = case
        pairs = itertools.combinations(range(n), 2)
        assert_matches_reference(Graph(n, [e for e, keep in zip(pairs, present) if keep]))


class TestExactModularityK:
    def test_max_parts_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="max_parts must be >= 1"):
                exact_modularity(path(4), max_parts=k)

    def test_p4_two_parts_maximizer(self):
        r = exact_modularity(path(4), max_parts=2)
        assert r.q_star == Fraction(1, 6) and r.partitions_scanned == 8
        assert [p.assign.tolist() for p in r.optimal_partitions] == [[0, 0, 1, 1]]

    def test_isolated_vertices_do_not_count_as_parts(self):
        # one edge plus two isolated vertices: the one part {0, 1} is optimal
        # among <= 1 parts, and the isolated vertices come back as singletons
        r = exact_modularity(Graph(4, [(0, 1)]), max_parts=1)
        assert r.q_star == 0
        assert [p.assign.tolist() for p in r.optimal_partitions] == [[0, 0, 1, 2]]

    def test_k1_is_zero(self):
        for i in range(10):
            g = random_graph_sized(make_rng(31, i), 2, 8)
            assert exact_modularity(g, max_parts=1).q_star == 0

    def test_three_edges_two_parts(self):
        # merging two of the three components is optimal among <= 2 parts:
        # 1 - (16 + 4)/36 = 4/9
        assert exact_modularity(matching(3), max_parts=2).q_star == Fraction(4, 9)

    def test_large_k_recovers_q_star(self):
        for i in range(15):
            g = random_graph_sized(make_rng(32, i), 2, 8)
            assert exact_modularity(g, max_parts=g.n).q_star == exact_modularity(g).q_star

    def test_few_parts_inequalities_exact(self):
        # q*(1 - 1/k) <= q_{<=k} <= q*, in exact arithmetic
        for i in range(60):
            rng = make_rng(33, i)
            g = random_graph_sized(rng, 3, 8)
            q_star = exact_modularity(g).q_star
            for k in (1, 2, 3, 5):
                qk = exact_modularity(g, max_parts=k).q_star
                assert qk >= q_star * Fraction(k - 1, k)
                assert qk <= q_star


class TestStructurePredicates:
    def test_two_triangles_bridge(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        assert resolution_limit_check(g)

    def test_matching_resolution(self):
        assert resolution_limit_check(matching(3))

    def test_resolution_random(self):
        for i in range(100):
            g = random_graph_sized(make_rng(34, i), 2, 8)
            assert resolution_limit_check(g)

    def test_connectivity_examples(self):
        assert optimal_connectivity_check(path(4))
        assert optimal_connectivity_check(cycle(5))

    def test_connectivity_random(self):
        for i in range(100):
            g = random_connected_graph(make_rng(35, i), 3, 8)
            assert optimal_connectivity_check(g)

    def test_connectivity_rejects_isolated(self):
        with pytest.raises(ValueError):
            optimal_connectivity_check(Graph(3, [(0, 1)]))

    def test_resolution_needs_edges(self):
        with pytest.raises(EmptyGraphError):
            resolution_limit_check(Graph(3, []))


def deleted(g, e0):
    return Graph(g.n, sorted(set(g.edge_list()) - set(e0)))


class TestRobustness:
    def test_delete_one_of_three(self):
        rc = robustness_check(matching(3), deleted(matching(3), [(0, 1)]))
        assert rc.delta == Fraction(1, 6)
        assert rc.bound == Fraction(2, 3)
        assert rc.ok

    def test_delete_everything(self):
        rc = robustness_check(matching(2), deleted(matching(2), [(0, 1), (2, 3)]))
        assert rc.delta == Fraction(1, 2) and rc.bound == 2 and rc.ok

    def test_delete_validation(self):
        # deleting nothing leaves the graph as it was; E' may not outgrow E
        with pytest.raises(ValueError):
            robustness_check(matching(2), deleted(matching(2), []))
        with pytest.raises(ValueError):
            robustness_check(matching(2), Graph(4, [(0, 1), (0, 2), (2, 3)]))
        with pytest.raises(EmptyGraphError):
            robustness_check(Graph(3, []), Graph(3, []))

    def test_rewire_extremal_pair(self):
        # three disjoint edges vs a 3-edge path: delta exactly 1/2 vs 2/3,
        # witnessing the 3/2 lower bound for the robustness constant
        g2 = Graph(6, [(0, 1), (1, 2), (2, 3)])
        rc = robustness_check(matching(3), g2)
        assert rc.delta == Fraction(1, 2)
        assert rc.bound == Fraction(2, 3)
        assert rc.ok

    def test_rewire_validation(self):
        # equal graphs, fewer edges before than after, another vertex set
        with pytest.raises(ValueError):
            robustness_check(matching(3), matching(3))
        with pytest.raises(ValueError):
            robustness_check(Graph(6, [(0, 1), (2, 3)]), matching(3))
        with pytest.raises(ValueError):
            robustness_check(matching(2), matching(3))

    def test_general_nested(self):
        g = matching(3)
        g2 = Graph(6, [(0, 1), (2, 3)])
        rc = robustness_check(g, g2)
        assert rc.bound == Fraction(2, 3) and rc.ok

    def test_general_bound_positive(self):
        # g != g2 with |E| >= |E'| forces |E \ E'| >= 1, so bound >= 2/|E|
        for i in range(40):
            rng = make_rng(36, i)
            g = random_graph_sized(rng, 3, 8, min_edges=2)
            edges = g.edge_list()
            keep = [e for j, e in enumerate(edges) if j != 0]
            rc = robustness_check(g, Graph(g.n, keep))
            assert rc.bound >= Fraction(2, g.m)
            assert rc.ok

    def test_randomized_suites(self):
        for i in range(60):
            rng = make_rng(37, i)
            g = random_graph_sized(rng, 3, 8, min_edges=2)
            edges = g.edge_list()
            # delete a random non-empty subset
            k = int(rng.integers(1, g.m + 1))
            idx = rng.choice(g.m, size=k, replace=False)
            assert robustness_check(g, deleted(g, [edges[j] for j in idx])).ok
            # rewire: move one edge to a random vacant pair
            vacant = [e for e in itertools.combinations(range(g.n), 2)
                      if e not in set(edges)]
            if vacant:
                new_edge = vacant[int(rng.integers(0, len(vacant)))]
                moved = edges[1:] + [new_edge]
                g2 = Graph(g.n, moved)
                if g2 != g:
                    assert robustness_check(g, g2).ok


class TestSolveDual:
    def test_c2(self):
        assert solve_dual(2.0) == pytest.approx(0.40637, abs=1e-4)

    def test_c125_window(self):
        x = solve_dual(1.25)
        assert 0.75 < x < 0.875

    def test_c_to_one_limit(self):
        assert solve_dual(1.0001) > 0.98

    def test_residual_small_everywhere(self):
        for c in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0):
            x = solve_dual(c)
            assert 0.0 < x < 1.0
            assert abs(x * math.exp(-x) - c * math.exp(-c)) <= 1e-12

    def test_domain(self):
        with pytest.raises(COutOfRangeError):
            solve_dual(1.0)
        with pytest.raises(COutOfRangeError):
            solve_dual(0.5)
