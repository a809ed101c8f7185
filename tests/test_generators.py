"""Generators: determinism (with frozen reference streams), marginal
statistics against binomial oracles, and range errors."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from modgraph.generators import (MAX_N, MTooLargeError, RateOutOfRangeError,
                                 _bernoulli_positions, _pairs_from_index,
                                 gen_gnm, gen_gnp, gen_planted, substream)
from modgraph.graph import _BLOCK, Graph, TooLargeError, modularity_score
from modgraph.heuristics import swap_bisection


def test_range_errors_exact_type():
    # each generator checks its own ranges and raises the exact type
    for generator, args, error in [
            (gen_gnm, (4, 7), MTooLargeError),
            (gen_gnm, (0, 0), ValueError),
            (gen_gnm, (5, -1), ValueError),
            (gen_planted, (10, 11.0, 1.0, 2), RateOutOfRangeError),
            (gen_planted, (10, 2.0, 11.0, 1), RateOutOfRangeError),
            (gen_planted, (10, 2.0, 1.0, 1), ValueError),
            (gen_planted, (0, 2.0, 1.0, 2), ValueError),
            (gen_gnp, (10, 1.5), ValueError),
            (gen_gnp, (0, 0.5), ValueError)]:
        with pytest.raises(error) as info:
            generator(*args, 0)
        assert type(info.value) is error, (generator.__name__, args)


class TestDeterminism:
    def test_gnp_reproducible(self):
        assert gen_gnp(200, 0.05, 42) == gen_gnp(200, 0.05, 42)
        assert gen_gnp(200, 0.05, 42) != gen_gnp(200, 0.05, 43)

    def test_gnm_reproducible(self):
        assert gen_gnm(50, 30, 7) == gen_gnm(50, 30, 7)

    def test_planted_reproducible(self):
        a = gen_planted(100, 5.0, 1.0, 3, 11)
        b = gen_planted(100, 5.0, 1.0, 3, 11)
        assert a.graph == b.graph and np.array_equal(a.labels, b.labels)

    def test_substreams_differ(self):
        a = gen_gnp(100, 0.2, substream(5, 0))
        b = gen_gnp(100, 0.2, substream(5, 1))
        assert a != b

    def test_reference_stream_gnp(self):
        # frozen PCG64 reference output; a change here means the streams
        # are no longer portable across versions/platforms
        g = gen_gnp(12, 0.35, 20240817)
        assert g.edge_list() == [
            (0, 3), (0, 4), (0, 6), (0, 7), (0, 10), (1, 3), (1, 4), (1, 5),
            (1, 11), (2, 4), (2, 5), (2, 6), (2, 8), (3, 4), (3, 5), (3, 11),
            (4, 6), (4, 8), (4, 9), (4, 10), (6, 11), (7, 10), (7, 11),
            (8, 9), (9, 10)]

    def test_reference_stream_gnm(self):
        g = gen_gnm(8, 5, 20240817)
        assert g.edge_list() == [(0, 7), (1, 5), (2, 3), (2, 7), (3, 6)]

    def test_reference_stream_planted(self):
        lg = gen_planted(10, 6.0, 1.0, 2, 20240817)
        assert lg.labels.tolist() == [1, 1, 0, 0, 1, 0, 0, 0, 1, 1]
        assert lg.graph.edge_list() == [
            (0, 1), (0, 4), (2, 5), (2, 6), (2, 7), (3, 7), (4, 9), (5, 6),
            (5, 7), (5, 8), (6, 7), (8, 9)]


def _start(u, n):
    return u * (2 * n - 1 - u) // 2


def _pair_by_isqrt(pos, n):
    """Reference decode of one index in Python integers: the largest row u
    with start(u) <= pos, from the quadratic's root and a step each way."""
    b = 2 * n - 1
    u = (b - math.isqrt(b * b - 8 * pos)) // 2
    while _start(u, n) > pos:
        u -= 1
    while _start(u + 1, n) <= pos:
        u += 1
    return u, pos - _start(u, n) + u + 1


def _pairs_by_edge_search(pos, n):
    """Reference decode of a block, one index at a time."""
    pairs = np.array([_pair_by_isqrt(int(x), n) for x in pos],
                     dtype=np.int64).reshape(-1, 2)
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    return pairs[:, 0].astype(dtype), pairs[:, 1].astype(dtype)


def _decode(pos, n):
    """_pairs_from_index's rows (rows, per-row counts, v) as the pairs (u, v)."""
    rows, counts, v = _pairs_from_index(pos, n)
    assert (np.diff(rows) > 0).all() and counts.sum() == v.size
    assert counts.size == 0 or (counts[0] > 0 and counts[-1] > 0)
    return np.repeat(rows, counts).astype(v.dtype), v


class TestPairDecoding:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 45])
    def test_matches_per_edge_search(self, n):
        count = n * (n - 1) // 2
        rng = np.random.default_rng(n)
        # sizes below 2 per spanned row search per edge, the others per row;
        # any sorted block decodes on its own, so pieces of 1 to 10 too
        for size in sorted({0, 1 if count else 0, count // 3, count}):
            pos = np.sort(rng.permutation(count)[:size]).astype(np.int64)
            ref_u, ref_v = _pairs_by_edge_search(pos, n)
            u, v = _decode(pos, n)
            assert u.dtype == ref_u.dtype and v.dtype == ref_v.dtype
            assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
            for piece in (1, 3, 10):
                parts = [_decode(pos[lo:lo + piece], n)
                         for lo in range(0, size, piece)]
                pu, pv = zip(*parts) if parts else ((ref_u,), (ref_v,))
                assert np.array_equal(np.concatenate(pu), ref_u)
                assert np.array_equal(np.concatenate(pv), ref_v)

    @pytest.mark.parametrize("n", [2, 3, 46_341, 2**31 - 1, 3_037_000_499])
    def test_row_boundaries_exact(self, n):
        # once n is large, the float row estimate is one row too early at
        # and just after most row starts, and the correction must put it
        # right; at each row's last pair (start - 1) it must be exact
        rng = np.random.default_rng(n)
        count = n * (n - 1) // 2
        rows = {0, n - 2} | {int(r) for r in rng.integers(0, n - 1, size=40)}
        near = {_start(r, n) + d for r in rows for d in (-1, 0, 1, 2)}
        pos = np.array(sorted(x for x in near if 0 <= x < count), dtype=np.int64)
        ref_u, ref_v = _pairs_by_edge_search(pos, n)
        # one index per block takes the float estimate; the whole sorted
        # run spans far more rows than it has indices, so it does too
        for lo, hi in [(i, i + 1) for i in range(pos.size)] + [(0, pos.size)]:
            u, v = _decode(pos[lo:hi], n)
            assert np.array_equal(u, ref_u[lo:hi]) and np.array_equal(v, ref_v[lo:hi])
        assert ref_u[0] == 0 and ref_u[-1] == n - 2 and ref_v[-1] == n - 1

    @pytest.mark.parametrize("draw", [
        lambda n: gen_gnp(n, 0.0, 1), lambda n: gen_gnm(n, 0, 1),
        lambda n: gen_planted(n, 1.0, 0.0, 2, 1)], ids=["gnp", "gnm", "planted"])
    def test_n_past_exact_range_refused(self, draw):
        # one past the largest n above; refused before any n-sized array,
        # where the degrees alone would take 24 GB
        with pytest.raises(TooLargeError, match="n=3037000500 exceeds 3037000499"):
            draw(3_037_000_500)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_positions(self, n):
        u, v = _decode(np.empty(0, dtype=np.int64), n)
        assert u.size == v.size == 0
        assert u.dtype == v.dtype == np.int32

    def test_every_pair_in_order(self):
        n = 9
        pos = np.arange(n * (n - 1) // 2, dtype=np.int64)
        u, v = _decode(pos, n)
        assert list(zip(u.tolist(), v.tolist())) == list(itertools.combinations(range(n), 2))


def _positions_reference(rng, count, p, requests=None):
    """Reference sampler: the whole-array form the blocked sampler replaced,
    kept verbatim apart from recording each request's size in `requests`."""
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    lam = -math.log1p(-p)
    chunks = []
    last = -1
    while True:
        remaining = count - 1 - last
        size = max(1024, int(remaining * p * 1.02) + 64)
        if requests is not None:
            requests.append(size)
        buf = rng.standard_exponential(size)
        buf /= lam
        np.floor(buf, out=buf)
        gaps = buf.astype(np.int64)
        del buf
        gaps += 1
        np.cumsum(gaps, out=gaps)
        gaps += last
        if gaps[-1] >= count:
            chunks.append(gaps[gaps < count])
            break
        chunks.append(gaps)
        last = int(gaps[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _gnp_reference(n, p, rng):
    u, v = _pairs_by_edge_search(_positions_reference(rng, n * (n - 1) // 2, p), n)
    return Graph.from_arrays(n, u, v)


def _two_request_seed(count, p):
    """A seed whose reference draw needs a second request (about 1 in 100
    seeds at count * p = 3000)."""
    for seed in range(2000):
        requests = []
        _positions_reference(substream(seed), count, p, requests)
        if len(requests) > 1:
            return seed
    raise AssertionError("no seed needs a second request")


class TestBlockedSampler:
    @pytest.mark.parametrize("count, p", [
        (10**6, 0.0), (10**8, 1e-7), (10**7, 0.01), (3 * 10**6, 0.5),
        (8 * 10**6, 0.5), (5 * _BLOCK + 17, 1.0), (0, 0.5), (1, 0.5),
        (2000, 0.5)])
    def test_matches_reference_and_state(self, count, p):
        # (10**7, 0.01) spans 2 blocks, (3e6, 0.5) and p = 1 many; at
        # (8e6, 0.5) the request's 2 % overshoot (80 k draws) outruns the
        # block holding the last position, so whole blocks are drawn past it
        ref_rng, rng = substream(41, count), substream(41, count)
        ref = _positions_reference(ref_rng, count, p)
        blocks = list(_bernoulli_positions(rng, count, p))
        assert all(b.dtype == np.int64 and b.size <= _BLOCK for b in blocks)
        got = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_second_request(self):
        count, p = 300_000, 0.01
        seed = _two_request_seed(count, p)
        ref_rng, rng = substream(seed), substream(seed)
        ref = _positions_reference(ref_rng, count, p)
        got = np.concatenate(list(_bernoulli_positions(rng, count, p)))
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("npv", [0.5, 50.0])
    def test_gnp_matches_reference(self, npv):
        # np = 0.5 decodes on the per-edge side, np = 50 on the per-row side
        n = 2000
        for i in range(3):
            g = gen_gnp(n, npv / n, substream(43, i))
            ref = _gnp_reference(n, npv / n, substream(43, i))
            assert g == ref and g.edge_u.dtype == ref.edge_u.dtype
            assert np.array_equal(g.deg, ref.deg)

    def test_gnp_second_request_grows_arrays(self):
        n, p = 2000, 0.0015  # count * p = 2998.5
        count = n * (n - 1) // 2
        seed = _two_request_seed(count, p)
        g = gen_gnp(n, p, substream(seed))
        assert g == _gnp_reference(n, p, substream(seed))
        assert g.m > max(1024, int(count * p * 1.02) + 64)  # past the first request


class TestRowLayout:
    # gen_gnp builds its rows without any edge check; the checked build of
    # the same edges must give the same stored arrays.  At n = 200, p =
    # 0.002 spreads about 40 edges over 199 rows (the per-edge float decode,
    # with leading, interior and trailing empty rows); p = 0.5 puts about 50
    # in each row (the per-row decode)
    @given(st.integers(1, 200), st.sampled_from([0.0, 0.002, 0.02, 0.5, 1.0]),
           st.integers(0, 2**32 - 1))
    @example(200, 0.002, 0)
    @example(200, 0.5, 0)
    @example(7, 1.0, 0)
    @example(13, 0.0, 0)
    @example(1, 0.5, 0)
    @settings(deadline=None)
    def test_rows_match_checked_build(self, n, p, seed):
        g = gen_gnp(n, p, substream(seed))
        ref = Graph.from_arrays(n, g.edge_u, g.edge_v)
        for name in ("edge_u", "edge_v", "indptr", "deg"):
            a, b = getattr(g, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert g == ref and hash(g) == hash(ref)
        assert g.m == {0.0: 0, 1.0: n * (n - 1) // 2}.get(p, g.m)


def _peak_alloc(fn):
    """(fn(), peak bytes traced while it ran); numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGrowthPathMemory:
    # m is about 2 M; a full-length temporary of any dtype, even a bool
    # mask, costs at least 1 byte per edge
    n = 20_000

    @pytest.fixture(scope="class")
    def graph(self):
        return gen_gnp(self.n, 0.01, substream(47))

    def test_gnp_peak(self, graph):
        g, peak = _peak_alloc(lambda: gen_gnp(self.n, 0.01, substream(47)))
        assert g == graph
        # the one int32 edge array (edge_v), sized to the first request, is
        # 4.1 B/edge; blocks, the row pointer and the degrees come on top
        assert peak <= 5 * g.m + 100 * self.n

    def test_build_no_edge_sized_temporary(self, graph):
        # the rows gen_gnp builds from, taken before the measured build
        indptr, v = graph.indptr, graph.edge_v
        _, peak = _peak_alloc(lambda: Graph.from_arrays(graph.n, indptr, v, _trusted=True))
        assert peak < graph.m

    def test_swap_no_edge_sized_temporary(self, graph):
        _, peak = _peak_alloc(lambda: swap_bisection(graph))
        assert peak < graph.m

    def test_score_no_edge_sized_temporary(self, graph):
        part, _ = swap_bisection(graph)
        _, peak = _peak_alloc(lambda: modularity_score(graph, part))
        assert peak < graph.m


class TestGnp:
    def test_p_zero_empty(self):
        for seed in range(5):
            assert gen_gnp(5, 0.0, seed).m == 0

    def test_p_one_complete(self):
        for seed in range(5):
            g = gen_gnp(5, 1.0, seed)
            assert g.m == 10
            assert g.edge_list() == list(itertools.combinations(range(5), 2))

    def test_mean_edge_count_at_scale(self):
        # binomial oracle: N = C(1e4, 2) pairs at p = 1e-3
        n, p, seeds = 10_000, 1e-3, 1000
        big_n = n * (n - 1) // 2
        mu = big_n * p
        se_mean = math.sqrt(big_n * p * (1 - p) / seeds)
        counts = [gen_gnp(n, p, substream(101, s)).m for s in range(seeds)]
        assert abs(np.mean(counts) - mu) <= 3 * se_mean

    def test_chi_square_edge_count_distribution(self):
        # m ~ Bin(C(50,2), 0.3); GOF at significance 1e-3 over 1e4 seeds
        n, p, seeds = 50, 0.3, 10_000
        big_n = n * (n - 1) // 2
        counts = np.array([gen_gnp(n, p, substream(733, s)).m
                           for s in range(seeds)])
        dist = stats.binom(big_n, p)
        lo, hi = int(dist.ppf(1e-5)), int(dist.ppf(1 - 1e-5))
        edges = np.arange(lo, hi + 2)
        expected = np.diff(dist.cdf(edges - 0.5)) * seeds
        observed = np.histogram(counts, bins=edges - 0.5)[0].astype(float)
        # merge sparse bins so every expected count is >= 5
        exp_b, obs_b, acc_e, acc_o = [], [], 0.0, 0.0
        for e, o in zip(expected, observed):
            acc_e += e
            acc_o += o
            if acc_e >= 5:
                exp_b.append(acc_e)
                obs_b.append(acc_o)
                acc_e = acc_o = 0.0
        exp_b[-1] += acc_e
        obs_b[-1] += acc_o
        exp_b = np.array(exp_b) * (sum(obs_b) / sum(exp_b))
        chi2, pvalue = stats.chisquare(obs_b, exp_b)
        assert pvalue >= 1e-3, f"chi2={chi2}, p={pvalue}"


class TestGnm:
    def test_exact_count_always(self):
        for seed in range(30):
            assert gen_gnm(12, 17, substream(55, seed)).m == 17

    def test_k4_and_empty(self):
        assert gen_gnm(4, 6, 3).m == 6
        assert gen_gnm(4, 0, 3).m == 0

    def test_too_large(self):
        with pytest.raises(MTooLargeError):
            gen_gnm(4, 7, 0)

    def test_per_edge_marginal_uniform(self):
        # uniformity oracle: each of the 15 pairs appears with marginal 3/15
        seeds = 10_000
        hits = np.zeros(15)
        pair_idx = {pair: i for i, pair in
                    enumerate(itertools.combinations(range(6), 2))}
        for s in range(seeds):
            for e in gen_gnm(6, 3, substream(61, s)).edge_list():
                hits[pair_idx[e]] += 1
        freqs = hits / seeds
        assert np.all(np.abs(freqs - 0.2) <= 0.015)


    @pytest.mark.parametrize("n, m", [(8, 10), (8, 28), (50, 30), (92_683, 60_000)])
    def test_draws_match_one_draw_per_step(self, n, m):
        # Floyd's steps drawn one rng.integers call each, as gen_gnm once
        # did: the same edges and the same final state.  At n = 92,683 the
        # bounds j + 1 run from below 2^32 (count - m + 1) to above (count)
        count = n * (n - 1) // 2
        assert count - m + 1 < 2**32 < count or n < 100
        for seed in range(3):
            ref_rng, rng = substream(67, seed), substream(67, seed)
            chosen = set()
            for j in range(count - m, count):
                t = int(ref_rng.integers(0, j + 1))
                chosen.add(j if t in chosen else t)
            u, v = _pairs_by_edge_search(np.array(sorted(chosen), dtype=np.int64), n)
            assert gen_gnm(n, m, rng) == Graph.from_arrays(n, u, v)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_vector_bounds_at_the_largest_pair_count(self):
        # the one vector draw gen_gnm makes, at the pair count of MAX_N
        # (about 4.6e18), where no graph can be allocated
        count, m = MAX_N * (MAX_N - 1) // 2, 40
        ref_rng, rng = substream(71), substream(71)
        want = [int(ref_rng.integers(0, j + 1)) for j in range(count - m, count)]
        got = rng.integers(0, np.arange(count - m + 1, count + 1)).tolist()
        assert got == want and rng.bit_generator.state == ref_rng.bit_generator.state


class TestPlanted:
    def test_beta_zero_within_only(self):
        lg = gen_planted(1000, 4.0, 0.0, 2, 13)
        lab = lg.labels
        assert (lab[lg.graph.edge_u] == lab[lg.graph.edge_v]).all()

    def test_alpha_eq_beta_matches_gnp_marginal(self):
        # alpha = beta = c collapses to G(n, c/n): 3-sigma edge-count band
        n, c, seeds = 400, 6.0, 200
        big_n = n * (n - 1) // 2
        mu = big_n * c / n
        se_mean = math.sqrt(big_n * (c / n) * (1 - c / n) / seeds)
        counts = [gen_planted(n, c, c, 2, substream(301, s)).graph.m
                  for s in range(seeds)]
        assert abs(np.mean(counts) - mu) <= 3 * se_mean

    def test_within_fraction(self):
        # balanced 2-block ratio oracle: within edges / all ~ alpha/(alpha+beta)
        n, alpha, beta, seeds = 10_000, 6.0, 2.0, 100
        fracs = []
        for s in range(seeds):
            lg = gen_planted(n, alpha, beta, 2, substream(401, s))
            lab = lg.labels
            within = int((lab[lg.graph.edge_u] == lab[lg.graph.edge_v]).sum())
            fracs.append(within / lg.graph.m)
        assert abs(np.mean(fracs) - alpha / (alpha + beta)) <= 0.02

    def test_labels_in_range(self):
        lg = gen_planted(200, 3.0, 1.0, 4, 5)
        assert set(np.unique(lg.labels)) <= set(range(4))

    def test_rate_errors(self):
        with pytest.raises(RateOutOfRangeError):
            gen_planted(10, 0.0, 1.0, 2, 0)
        with pytest.raises(RateOutOfRangeError):
            gen_planted(10, 2.0, 12.0, 2, 0)
        with pytest.raises(ValueError):
            gen_planted(10, 2.0, 1.0, 1, 0)
