"""Heuristics: odd/even baseline, the Swap improvement and its exact cut
identity, planted partitions, and f(k)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modgraph.generators import gen_gnp, gen_planted, substream
from modgraph.graph import (EmptyGraphError, Graph, Partition,
                            modularity_exact, modularity_score)
from modgraph.heuristics import (KTooSmallError, TooSmallError, f_k,
                                 planted_partition, swap_bisection)

from _samplers import random_graph


def odd_even_bisection(n: int) -> Partition:
    """Bipartition into odd vs even classical labels (even vs odd 0-based
    indices), the partition Swap starts from.  Part 0 contains vertex 0."""
    if n < 2:
        raise TooSmallError("bisection needs n >= 2")
    return Partition(np.arange(n, dtype=np.int64) % 2)


class TestOddEven:
    def test_n4(self):
        p = odd_even_bisection(4)
        assert [s.tolist() for s in p.parts()] == [[0, 2], [1, 3]]

    def test_n5_sizes(self):
        assert sorted(odd_even_bisection(5).part_sizes().tolist()) == [2, 3]

    def test_n2(self):
        assert odd_even_bisection(2).assign.tolist() == [0, 1]

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            odd_even_bisection(1)


def _swap_zones(n: int) -> tuple[int, np.ndarray]:
    """(k, zone) with k = floor(n/6); zone[v] is 0 on the first 4k vertices,
    1 on the next 2k, 2 on the at most 5 leftover vertices."""
    k = n // 6
    zone = np.full(n, 2, dtype=np.int8)
    zone[:4 * k] = 0
    zone[4 * k:6 * k] = 1
    return k, zone


def _swap_by_zone_gathers(g: Graph):
    """Reference Swap: the zone-gather form over all edges that the
    pool-prefix bincount replaced, kept verbatim."""
    n = g.n
    k, zone = _swap_zones(n)
    side = (np.arange(n, dtype=np.int64) % 2).astype(np.int8)

    u, v = g.edge_u, g.edge_v
    zu, zv = zone[u], zone[v]
    m01 = (zu == 0) & (zv == 1)
    m10 = (zv == 0) & (zu == 1)
    pool = np.concatenate([u[m01], v[m10]])
    probe_side = side[np.concatenate([v[m01], u[m10]])]
    cnt = [np.bincount(pool[probe_side == s], minlength=4 * k) for s in (0, 1)]
    a = np.arange(0, 4 * k, 2)
    b = a + 1
    t_values = (cnt[1][a] - cnt[0][a]) + (cnt[0][b] - cnt[1][b])
    swaps = t_values > 0

    new_side = side.copy()
    new_side[a[swaps]] = 1
    new_side[b[swaps]] = 0
    final_cut = int(np.count_nonzero(new_side[u] != new_side[v]))
    return (Partition.from_labels(new_side), k, swaps, t_values,
            int(np.abs(t_values).sum()), final_cut)


def _assert_swap_matches_reference(g: Graph) -> None:
    part, trace = swap_bisection(g)
    ref_part, k, swaps, t_values, t_star, final_cut = _swap_by_zone_gathers(g)
    assert part == ref_part and part.assign.dtype == ref_part.assign.dtype
    assert trace.k == k and trace.t_star == t_star and trace.final_cut == final_cut
    assert trace.swaps.dtype == swaps.dtype and np.array_equal(trace.swaps, swaps)
    assert trace.t_values.dtype == t_values.dtype
    assert np.array_equal(trace.t_values, t_values)
    # coverage is exactly the share of uncut edges
    ssq = sum(int(x) ** 2 for x in part.part_volumes(g))
    assert modularity_exact(g, part) == (Fraction(g.m - final_cut, g.m)
                                         - Fraction(ssq, 4 * g.m * g.m))


def _unswapped_sides(n: int) -> np.ndarray:
    return (np.arange(n) % 2).astype(np.int8)


def _swapped_sides(n: int, trace) -> np.ndarray:
    side = _unswapped_sides(n).copy()
    a = np.arange(0, 4 * trace.k, 2)
    b = a + 1
    side[a[trace.swaps]] = 1
    side[b[trace.swaps]] = 0
    return side


class TestSwapBisection:
    def test_no_probe_edges_is_odd_even(self):
        g = Graph(6, [(0, 1), (2, 3)])  # no edges into {4, 5}
        part, trace = swap_bisection(g)
        assert trace.t_star == 0 and not trace.swaps.any()
        assert part == odd_even_bisection(6)

    def test_single_pair_hand_case(self):
        # one edge from the first pool vertex into the even probe half:
        # classical labels {1,6}, i.e. indices {0,5}
        g = Graph(6, [(0, 5)])
        part, trace = swap_bisection(g)
        assert trace.k == 1
        assert trace.t_values.tolist() == [1, 0]
        assert trace.swaps.tolist() == [True, False]
        assert trace.final_cut == 0  # the edge ends up inside the even side

    def test_errors(self):
        with pytest.raises(TooSmallError):
            swap_bisection(Graph(5, [(0, 1)]))
        with pytest.raises(EmptyGraphError):
            swap_bisection(Graph(6, []))

    def test_swaps_match_sign_rule(self):
        for i in range(50):
            g = gen_gnp(60, 0.15, substream(811, i))
            if g.m == 0:
                continue
            _, trace = swap_bisection(g)
            assert np.array_equal(trace.swaps, trace.t_values > 0)
            assert trace.t_star == int(np.abs(trace.t_values).sum())

    def test_cut_identity_and_no_cut_increase_500(self):
        # the gain identity e(A'0,B1) + e(A1,B'0) = e(V0,V1)/2 - T*/2 is
        # deterministic; the cut never increasing is only a whp statement
        # (edges inside the pair pool can flip against the probe-set gain on
        # adversarial inputs), checked here at n=300, np=8 on a fixed stream
        # where the gain dwarfs the pool noise
        n = 300
        checked = 0
        for i in range(500):
            g = gen_gnp(n, 8 / n, substream(424242, i))
            if g.m == 0:
                continue
            part, trace = swap_bisection(g)
            k, zone = _swap_zones(n)
            side0 = _unswapped_sides(n)
            new_side = _swapped_sides(n, trace)
            u, v = g.edge_u, g.edge_v
            cut0 = int(np.count_nonzero(side0[u] != side0[v]))
            assert trace.final_cut <= cut0
            m01 = (zone[u] == 0) & (zone[v] == 1)
            m10 = (zone[v] == 0) & (zone[u] == 1)
            pool = np.concatenate([u[m01], v[m10]])
            probe = np.concatenate([v[m01], u[m10]])
            cross = int(np.count_nonzero(new_side[pool] != side0[probe]))
            assert 2 * cross == pool.size - trace.t_star
            checked += 1
        assert checked == 500

    @settings(max_examples=150, deadline=None)
    @given(st.integers(6, 80), st.floats(0.02, 0.9), st.integers(0, 2**32 - 1))
    def test_matches_zone_gather_reference(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, p)
        assume(g.m > 0)
        _assert_swap_matches_reference(g)

    @pytest.mark.parametrize("n", range(6, 12))
    def test_matches_reference_complete_graph(self, n):
        # every n mod 6, with edges into each leftover vertex
        _assert_swap_matches_reference(Graph(n, [(u, v) for u in range(n)
                                                 for v in range(u + 1, n)]))

    def test_matches_reference_across_blocks(self):
        g = gen_gnp(3000, 0.05, substream(819))  # m > 3 blocks
        _assert_swap_matches_reference(g)

    def test_swaps_off_reproduces_baseline(self):
        # regression guard: ignoring the swap decisions must give exactly
        # the odd/even score
        for i in range(25):
            g = gen_gnp(40, 0.2, substream(813, i))
            if g.m == 0:
                continue
            _, trace = swap_bisection(g)
            baseline = Partition.from_labels(_unswapped_sides(g.n))
            assert modularity_exact(g, baseline) == modularity_exact(
                g, odd_even_bisection(g.n))

    def test_balanced_when_even(self):
        g = gen_gnp(120, 0.1, substream(815))
        part, _ = swap_bisection(g)
        assert sorted(part.part_sizes().tolist()) == [60, 60]

    def test_score_beats_square_root_rate(self):
        # one point of the growth-rate picture at test scale
        n, npv = 20_000, 64.0
        vals = []
        for i in range(5):
            g = gen_gnp(n, npv / n, substream(817, i))
            part, _ = swap_bisection(g)
            vals.append(modularity_score(g, part).score)
        assert np.median(vals) >= 0.15 * math.sqrt((1 - npv / n) / npv)

    @pytest.mark.slow
    def test_degree_tax_distributional_symmetry(self):
        # vol(A') must match vol(A) in law: paired mean within 3 SE and
        # variances within 3 SE of each other over 1e4 seeds at n=600, np=8
        n, seeds = 600, 10_000
        vol_a = np.empty(seeds)
        vol_ap = np.empty(seeds)
        for i in range(seeds):
            g = gen_gnp(n, 8 / n, substream(777, i))
            _, trace = swap_bisection(g)
            side0 = _unswapped_sides(n)
            new_side = _swapped_sides(n, trace)
            vol_a[i] = g.deg[side0 == 0].sum()
            vol_ap[i] = g.deg[new_side == 0].sum()
        diff = vol_ap - vol_a
        se_mean = diff.std(ddof=1) / math.sqrt(seeds)
        assert abs(diff.mean()) <= 3 * se_mean
        var_a, var_ap = vol_a.var(ddof=1), vol_ap.var(ddof=1)
        def var_se(x):
            central = x - x.mean()
            mu4 = np.mean(central ** 4)
            return math.sqrt((mu4 - np.var(x) ** 2) / len(x))
        se = math.hypot(var_se(vol_a), var_se(vol_ap))
        assert abs(var_a - var_ap) <= 3 * se


class TestPlantedPartition:
    def test_label_classes(self):
        lg = gen_planted(40, 5.0, 1.0, 3, 21)
        part = planted_partition(lg, balance=False)
        remap = {}
        for vtx, lab in enumerate(lg.labels.tolist()):
            cid = int(part.assign[vtx])
            assert remap.setdefault(lab, cid) == cid

    def test_balance_example(self):
        # two classes sized (6, 4); two isolated vertices sit in the big one
        g = Graph(10, [(0, 1), (2, 3), (6, 7), (8, 9)])
        lg = type("LG", (), {"graph": g,
                             "labels": np.array([0] * 6 + [1] * 4), "k": 2})
        part = planted_partition(lg, balance=True)
        assert sorted(part.part_sizes().tolist()) == [5, 5]

    def test_score_independent_of_balance(self):
        for i in range(25):
            lg = gen_planted(80, 3.0, 0.5, 2, substream(819, i))
            if lg.graph.m == 0:
                continue
            q0 = modularity_exact(lg.graph, planted_partition(lg, False))
            q1 = modularity_exact(lg.graph, planted_partition(lg, True))
            assert q0 == q1

    def test_planted_two_block_score(self):
        # c=4: alpha, beta = 6, 2 give score 1/(2 sqrt(c)) = 0.25 at scale
        n, seeds = 30_000, 8
        scores = []
        for i in range(seeds):
            lg = gen_planted(n, 6.0, 2.0, 2, substream(823, i))
            scores.append(modularity_score(
                lg.graph, planted_partition(lg, balance=True)).score)
        assert abs(np.mean(scores) - 0.25) <= 0.01

    def test_alpha_eq_beta_scores_near_zero(self):
        n = 20_000
        scores = []
        for i in range(8):
            lg = gen_planted(n, 8.0, 8.0, 2, substream(827, i))
            scores.append(modularity_score(
                lg.graph, planted_partition(lg, balance=True)).score)
        # no planted signal: mean is 0 up to O(1/sqrt(n m)) noise
        assert abs(np.mean(scores)) <= 3 * (np.std(scores) + 1e-4)


class TestFk:
    TABLE = {2: 0.5000, 3: 0.5550, 4: 0.6418, 5: 0.6660, 6: 0.6686,
             7: 0.6624, 8: 0.6524, 9: 0.6409, 10: 0.6288}

    def test_printed_values_truncation_exact(self):
        for k, printed in self.TABLE.items():
            assert math.floor(f_k(k) * 1e4) / 1e4 == pytest.approx(printed, abs=1e-12)

    def test_spec_spot_values(self):
        assert f_k(2) == 0.5
        assert abs(f_k(6) - 0.6686) < 5e-5
        assert abs(f_k(3) - 0.5550) < 5e-5

    def test_k_too_small(self):
        with pytest.raises(KTooSmallError):
            f_k(1)

