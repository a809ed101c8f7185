"""graph-core: construction invariants, exact scoring, components, bounds,
and the two text formats."""

import io
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from modgraph.graph import (_BLOCK, EdgeListFormatError, EmptyGraphError, Graph,
                            InvalidPartitionError, Partition, _edge_blocks, _index_dtype,
                            _sum_sq, _symmetric_csr, connected_components,
                            induced_subgraph, modularity_score, read_edgelist,
                            read_partition, write_edgelist, write_partition)
from modgraph.generators import gen_gnm, gen_gnp, substream

from _samplers import (make_rng, modularity_exact, random_graph_sized,
                       random_partition)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraphConstruction:
    def test_basic_fields(self):
        g = Graph(4, [(2, 3), (0, 1)])
        assert g.n == 4 and g.m == 2
        assert g.edge_list() == [(0, 1), (2, 3)]
        assert g.deg.tolist() == [1, 1, 1, 1]

    def test_degree_sum_is_2m(self):
        for i in range(25):
            g = random_graph_sized(make_rng(1, i), 2, 12, min_edges=0)
            assert int(g.deg.sum()) == 2 * g.m

    def test_degrees_on_both_sides_of_search_rule(self):
        # from 2 edges per vertex up the sorted edge_u's rows are found by
        # one search per vertex, below that by bincount: the rows and the
        # degrees agree on every constructor either side of the rule
        rng = make_rng(2, 0)
        for n in (1, 7, 40):
            top = n * (n - 1) // 2
            for m in sorted({0, 2 * n - 1, 2 * n, 2 * n + 1, top} & set(range(top + 1))):
                g = gen_gnm(n, m, rng)
                want = np.bincount(np.concatenate((g.edge_u, g.edge_v)), minlength=n)
                shuffled = rng.permutation(np.column_stack((g.edge_v, g.edge_u)))
                for h in (g, Graph(n, shuffled), induced_subgraph(g, np.arange(n))):
                    assert h.deg.dtype == np.int64
                    assert h.deg.tolist() == want.tolist()
                    assert np.array_equal(h.indptr, g.indptr)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_unordered_input_normalized(self):
        assert Graph(3, [(2, 0)]).edge_list() == [(0, 2)]

    def test_immutable(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(ValueError):
            g.deg[0] = 7

    def test_empty_graph_allowed(self):
        g = Graph(3, [])
        assert g.m == 0 and g.deg.tolist() == [0, 0, 0]

    def test_rejects_endpoint_that_wraps_int32(self):
        # 4294967297 = 2^32 + 1 would become 1 in the int32 edge arrays
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph(3, [(0, 4294967297)])
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph.from_arrays(3, np.array([0]), np.array([4294967297]))

    def test_rejects_non_integer_endpoints(self):
        # an integer cast would truncate 0.5 and 1.7 to the edge (0, 1)
        with pytest.raises(ValueError, match="endpoints must be integers"):
            Graph(3, [(0.5, 1.7)])
        with pytest.raises(ValueError, match="endpoints must be integers"):
            Graph.from_arrays(3, np.array([0.2]), np.array([1.9]))
        with pytest.raises(ValueError, match="endpoints must be integers"):
            Graph(3, [(True, False)])
        # no endpoint, no fault: an empty edge list of any dtype is the empty graph
        for dtype in (np.float64, np.bool_, np.int8, object):
            empty = np.empty(0, dtype=dtype)
            for g in (Graph(3, empty), Graph.from_arrays(3, empty, empty)):
                assert g.m == 0 and g.deg.tolist() == [0, 0, 0]

    def test_adjacency_not_kept(self):
        # the upper CSR rows are the whole store: no m-length array but
        # edge_v, and edge_u is derived on each access
        g = gen_gnm(40, 100, 3)
        first, second = g.adjacency(), g.adjacency()
        assert first[1] is not second[1] and vars(g).keys() == {
            "n", "m", "indptr", "edge_v", "deg"}
        assert [name for name, value in vars(g).items()
                if np.size(value) == g.m] == ["edge_v"]
        assert g.edge_u is not g.edge_u

    def test_edge_blocks_cover_the_rows(self):
        # blocks of _BLOCK edges end anywhere in a row; each block's rows,
        # repeated by their counts, are its slice of edge_u, up to any
        # stop.  n = 300k leaves most rows empty, n = 800 runs rows of
        # about 200 edges across the block ends
        for n, m in ((300_000, 150_000), (800, 150_000)):
            g = gen_gnm(n, m, 9)
            u = g.edge_u
            for stop in (None, g.m - 1, _BLOCK + 1, _BLOCK, 1, 0):
                end = g.m if stop is None else stop
                got_u, got_v = [np.empty(0, dtype=np.intp)], [g.edge_v[:0]]
                for rows, counts, v in _edge_blocks(g, stop=stop):
                    assert v.size <= _BLOCK and counts.sum() == v.size
                    got_u.append(np.repeat(np.arange(g.n)[rows], counts))
                    got_v.append(v)
                assert np.array_equal(np.concatenate(got_u), u[:end])
                assert np.array_equal(np.concatenate(got_v), g.edge_v[:end])

    def test_row_pointer_dtype(self):
        # int32 offsets while m fits in int32; the rule picks int64 past it
        # (checked on the count: no such graph is allocated)
        for g in (path(4), gen_gnm(40, 100, 3), Graph(3, [])):
            assert g.indptr.dtype == np.int32 and g.indptr.size == g.n + 1
        limit = np.iinfo(np.int32).max
        assert _index_dtype(limit) is np.int32 and _index_dtype(limit + 1) is np.int64

    def test_neighbors(self):
        indptr, nbrs = path(4).adjacency()
        assert nbrs[indptr[1]:indptr[2]].tolist() == [0, 2]
        assert nbrs[indptr[0]:indptr[1]].tolist() == [1]

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.integers(0, 2**32 - 1))))
    @example((6, [True] + [False] * 14, 0))  # isolated vertices
    @example((6, [True] * 15, 0))            # complete
    def test_symmetric_csr_matches_coo_build(self, case):
        # the sort-free CSR is bit for bit the one scipy builds from both
        # edge directions as coordinates; the adjacency is its pattern
        n, chosen, seed = case
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                         dtype=np.int64).reshape(-1, 2)[np.array(chosen, dtype=bool)]
        g = Graph(n, pairs)
        data = np.random.default_rng(seed).random(g.m)
        got = _symmetric_csr(g, data)
        want = csr_matrix((np.concatenate([data, data]),
                           (np.concatenate([g.edge_u, g.edge_v]),
                            np.concatenate([g.edge_v, g.edge_u]))), shape=(n, n))
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        indptr, nbrs = g.adjacency()
        assert indptr.tolist() == want.indptr.tolist()
        assert nbrs.tolist() == want.indices.tolist()

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]).map(sorted).map(tuple),
                 min_size=1, max_size=20, unique=True),
        st.randoms())))
    def test_from_arrays_any_order(self, case):
        # one key scan takes sorted pairs as they are; any other order is
        # sorted by key, and a repeated pair is caught after the sort
        n, edges, rnd = case
        u, v = np.array(sorted(edges)).T
        want = Graph.from_arrays(n, u, v)
        assert want.edge_list() == sorted(edges)
        order = np.array(rnd.sample(range(len(edges)), len(edges)))
        got = Graph.from_arrays(n, u[order], v[order])
        assert got == want and got.deg.tolist() == want.deg.tolist()
        dup = np.insert(order, rnd.randrange(len(edges) + 1), rnd.choice(order))
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph.from_arrays(n, u[dup], v[dup])


def _from_labels_by_sorting(labels):
    """Reference relabel by three sorts (first index, inverse, part count):
    (assign, k) as Partition.from_labels must give them."""
    arr = np.asarray(labels)
    _, first = np.unique(arr, return_index=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty(order.size, dtype=np.int64)
    remap[order] = np.arange(order.size)
    _, inverse = np.unique(arr, return_inverse=True)
    assign = remap[inverse]
    return assign.astype(np.int32), int(np.unique(assign).size)


def _restricted_growth(raw):
    """Labels in first-appearance order: each is at most one above the
    largest before it (the first is 0)."""
    labels, top = [], -1
    for label in raw:
        labels.append(min(label, top + 1))
        top = max(top, labels[-1])
    return labels


def _bumped(labels, at, by):
    labels[at % len(labels)] += by
    return labels


_RESTRICTED_GROWTH = st.lists(st.integers(0, 12), min_size=1, max_size=12).map(
    _restricted_growth)

_LABEL_LISTS = st.one_of(
    _RESTRICTED_GROWTH,
    st.builds(_bumped, _RESTRICTED_GROWTH, st.integers(0, 11), st.integers(1, 2)),
    st.lists(st.integers(0, 12), min_size=1, max_size=12),
    st.lists(st.integers(-6, 20), min_size=1, max_size=12),
    st.lists(st.integers(10**12 - 2, 10**12 + 2), min_size=1, max_size=12),
    st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=6),
    st.lists(st.sampled_from([0.0, -1.5, 0.5, 2.0, 1e12]), min_size=1, max_size=12),
    st.lists(st.booleans(), min_size=1, max_size=12),
    st.lists(st.sampled_from(["a", "b", "zz", ""]), min_size=1, max_size=12),
)


class TestPartition:
    def test_contiguous_required(self):
        with pytest.raises(InvalidPartitionError):
            Partition([0, 2, 2])

    @pytest.mark.parametrize("assign, message", [
        ([0, -1, 1], "negative part id"),
        ([1, 0, 3, 3], "contiguous"),
        ([0, 10**12], "contiguous"),
    ])
    def test_constructor_errors(self, assign, message):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPartitionError, match=message):
                Partition(assign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an id of 10**12 is rejected before any per-id counter exists
        assert peak < 1 << 20

    @pytest.mark.parametrize("assign", [[0.2, 0.7], [True, False], ["0", "1"],
                                        np.array([0.0, 1.0])])
    def test_rejects_non_integer_ids(self, assign):
        # an integer cast would make [0.2, 0.7] one part and [True, False]
        # the ids [1, 0]
        with pytest.raises(InvalidPartitionError, match="part ids must be integers"):
            Partition(assign)

    def test_constructor_peak(self):
        # the ids are checked in their own dtype with one flag per id and
        # copied once to int32: 4 MB for 10^6 int32 ids, not an int64 copy
        n = 10**6
        labels = make_rng(5, 1).integers(0, n // 3, size=n).astype(np.int32)
        labels[:n // 3] = np.arange(n // 3)
        tracemalloc.start()
        try:
            p = Partition(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.assign.tobytes() == labels.tobytes() and p.k == n // 3
        assert peak < 6 * 2**20

    @given(_LABEL_LISTS)
    def test_from_labels_matches_sorting_reference(self, labels):
        assign, k = _from_labels_by_sorting(labels)
        p = Partition.from_labels(labels)
        assert p.assign.dtype == assign.dtype
        assert p.assign.tobytes() == assign.tobytes()
        assert p.k == k

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_from_labels_integer_dtypes(self, dtype):
        labels = make_rng(3, 0).integers(0, 9, size=40).astype(dtype)
        assign, k = _from_labels_by_sorting(labels)
        p = Partition.from_labels(labels)
        assert p.assign.tobytes() == assign.tobytes() and p.k == k

    def test_from_labels_first_appearance_peak(self):
        # component labels arrive in first-appearance order; the O(n) test
        # of that order takes them as ids, without the relabel's n-length
        # first-position, rank and gather temporaries (33 B/label)
        n = 10**6
        rng = make_rng(5, 0)
        opens = rng.random(n) < 0.3
        opens[0] = True
        top = np.cumsum(opens) - 1
        labels = np.where(opens, top, rng.random(n) * (top + 1)).astype(np.int32)
        tracemalloc.start()
        try:
            p = Partition.from_labels(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.assign.tobytes() == labels.tobytes() and p.k == top[-1] + 1
        assert peak < 20 * n

    def test_from_labels_rejects_empty(self):
        with pytest.raises(InvalidPartitionError, match="non-empty vector"):
            Partition.from_labels([])

    def test_from_labels_smallest_vertex_order(self):
        p = Partition.from_labels([7, 3, 7, 1])
        assert p.assign.tolist() == [0, 1, 0, 2]

    def test_k_bounds(self):
        p = Partition(np.arange(5))
        assert p.k == 5
        assert Partition(np.zeros(5, dtype=int)).k == 1

    def test_parts_and_sizes(self):
        p = Partition([0, 1, 0, 2])
        assert [s.tolist() for s in p.parts()] == [[0, 2], [1], [3]]
        assert p.part_sizes().tolist() == [2, 1, 1]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_from_labels_idempotent(self, labels):
        p = Partition.from_labels(labels)
        assert Partition.from_labels(p.assign) == p
        assert p.k == len(set(labels))


class TestModularityScore:
    def test_single_edge_trivial(self):
        b = modularity_score(Graph(2, [(0, 1)]), Partition(np.zeros(2, dtype=int)))
        assert (b.coverage, b.degree_tax, b.score) == (1.0, 1.0, 0.0)

    def test_p4_half_split(self):
        assert modularity_exact(path(4), Partition([0, 0, 1, 1])) == Fraction(1, 6)

    def test_two_disjoint_edges_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert modularity_exact(g, connected_components(g)) == Fraction(1, 2)

    def test_c4_antipodal(self):
        assert modularity_exact(cycle(4), Partition([0, 1, 0, 1])) == Fraction(-1, 2)

    def test_empty_graph_refused(self):
        with pytest.raises(EmptyGraphError):
            modularity_score(Graph(3, []), Partition(np.zeros(3, dtype=int)))

    def test_sum_sq_exact_past_int64(self):
        # each value's square fits in int64, their sum does not
        assert _sum_sq(np.array([3_000_000_000, 3_000_000_000])) == 18 * 10**18
        assert _sum_sq(np.array([3_037_000_499])) == 3_037_000_499**2

    def test_trivial_partition_scores_zero_everywhere(self):
        for i in range(50):
            g = random_graph_sized(make_rng(2, i), 2, 14)
            assert modularity_score(g, Partition(np.zeros(g.n, dtype=int))).score == 0.0

    def test_score_below_one_and_ranges(self):
        for i in range(200):
            rng = make_rng(3, i)
            g = random_graph_sized(rng, 2, 14)
            p = random_partition(rng, g.n)
            b = modularity_score(g, p)
            assert b.score < 1.0
            assert 0.0 <= b.coverage <= 1.0
            assert 0.0 < b.degree_tax <= 1.0
            assert b.score == b.coverage - b.degree_tax

    def test_relabel_invariance(self):
        for i in range(50):
            rng = make_rng(4, i)
            g = random_graph_sized(rng, 3, 12)
            p = random_partition(rng, g.n)
            perm = rng.permutation(g.n)
            g2 = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])
            inv = np.empty(g.n, dtype=np.int64)
            inv[perm] = np.arange(g.n)
            p2 = Partition.from_labels(p.assign[inv])
            assert abs(modularity_score(g, p).score
                       - modularity_score(g2, p2).score) <= 1e-12

    def test_exact_matches_float(self):
        for i in range(50):
            rng = make_rng(5, i)
            g = random_graph_sized(rng, 2, 12)
            p = random_partition(rng, g.n)
            assert abs(float(modularity_exact(g, p))
                       - modularity_score(g, p).score) <= 1e-14


class TestComponents:
    def test_two_disjoint_edges(self):
        assert connected_components(Graph(4, [(0, 1), (2, 3)])).k == 2

    def test_path_one_part(self):
        assert connected_components(path(4)).k == 1

    def test_edge_plus_isolated(self):
        p = connected_components(Graph(3, [(0, 1)]))
        assert p.k == 2 and p.assign.tolist() == [0, 0, 1]

    def test_ids_ordered_by_smallest_vertex(self):
        p = connected_components(Graph(5, [(3, 4), (0, 2)]))
        assert p.assign.tolist() == [0, 1, 0, 2, 2]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_edgeless_singletons(self, n):
        assert connected_components(Graph(n, [])) == Partition(np.arange(n))

    @staticmethod
    def _stats(g):
        """(size, edges, volume) per component, read off the components
        partition the way the sweep harness reads them."""
        comp = connected_components(g)
        edges = np.bincount(comp.assign[g.edge_u], minlength=comp.k)
        return list(zip(comp.part_sizes().tolist(), edges.tolist(),
                        comp.part_volumes(g).tolist()))

    def test_component_stats_examples(self):
        assert self._stats(Graph(4, [(0, 1), (2, 3)])) == [(2, 1, 2), (2, 1, 2)]
        assert self._stats(Graph(4, [(0, 1), (0, 2), (1, 2)])) == [
            (3, 3, 6), (1, 0, 0)]
        assert self._stats(cycle(4)) == [(4, 4, 8)]

    def test_component_stats_sums(self):
        for i in range(30):
            g = random_graph_sized(make_rng(6, i), 2, 14, min_edges=0)
            sizes, edges, vols = zip(*self._stats(g))
            assert sum(sizes) == g.n
            assert sum(edges) == g.m
            assert sum(vols) == 2 * g.m

    @staticmethod
    def _scipy_labels(g):
        """scipy's component search, the reference: its labels are in
        first-appearance order, so they must equal the ids."""
        upper = csr_matrix((np.ones(g.m, dtype=np.int8), g.edge_v, g.indptr),
                           shape=(g.n, g.n))
        return scipy_components(upper, directed=False)[1]

    def _assert_matches_scipy(self, g):
        comps = connected_components(g)
        assert np.array_equal(comps.assign, self._scipy_labels(g))
        return comps

    # n * p from below the threshold to the witness core's density, and
    # p = 0.5 where n is small enough; both find routes and many rounds
    @pytest.mark.parametrize("n, np_", [(n, c) for n in (2, 7, 60, 500, 5000)
                                        for c in (0.3, 0.8, 1.0, 1.5, 4.0, 30.0)]
                             + [(500, 250.0), (5000, 100.0)])
    def test_matches_scipy_on_gnp(self, n, np_):
        for trailing in range(3):
            g = gen_gnp(n, min(np_ / n, 0.5), substream(26, n, int(10 * np_), trailing))
            g = Graph.from_arrays(g.n + trailing, g.edge_u, g.edge_v)
            self._assert_matches_scipy(g)

    # just above the threshold: trees of many depths merge over several
    # rounds, most of them on the pairs' moved roots alone
    @pytest.mark.parametrize("n, np_", [(n, c) for n in (3000, 5000, 20000)
                                        for c in (1.5, 2.0, 3.0)])
    def test_matches_scipy_near_threshold(self, n, np_):
        for seed in range(10):
            self._assert_matches_scipy(gen_gnp(n, np_ / n, substream(27, n, int(10 * np_), seed)))

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_matches_scipy_edgeless(self, n):
        assert self._assert_matches_scipy(Graph(n, [])).k == n

    @staticmethod
    def _ordered(name):
        """Vertex orders that force deep pointer chains or several rounds."""
        rng = np.random.default_rng(2026)
        n = 10**5
        line = np.arange(n)
        if name == "permuted path":
            order = rng.permutation(n)
        elif name == "path":       # each vertex hooks under the one before
            order = line
        elif name == "reversed path":
            order = line[::-1]
        elif name == "zigzag path":  # 0, n-1, 1, n-2, ...: every other vertex
            # has no lower neighbour
            order = np.column_stack((line[:n // 2], line[::-1][:n // 2])).ravel()
        elif name == "star":
            return Graph(n, np.column_stack((line[:-1], np.full(n - 1, n - 1))))
        elif name == "cliques":
            k, size = 40, 30
            i, j = np.triu_indices(size, 1)
            blocks = np.arange(k)[:, None] * size
            pairs = np.column_stack(((blocks + i).ravel(), (blocks + j).ravel()))
            return Graph(k * size, rng.permutation(k * size)[pairs])
        elif name == "matching":
            return Graph(n, rng.permutation(n).reshape(-1, 2))
        return Graph(n, np.column_stack((order[:-1], order[1:])))

    @pytest.mark.parametrize("name, k", [("permuted path", 1), ("path", 1),
                                         ("reversed path", 1), ("zigzag path", 1),
                                         ("star", 1), ("cliques", 40),
                                         ("matching", 50_000)])
    def test_matches_scipy_on_deep_orders(self, name, k):
        assert self._assert_matches_scipy(self._ordered(name)).k == k

    def test_peak_memory(self):
        # near the threshold: parent, then each vertex's root and the
        # roots' numbers, are n int32 ids each, beside the edge pairs and
        # masks (15 B per vertex); scipy's search peaked at 27 here
        n = 200_000
        g = gen_gnp(n, 1.2 / n, substream(26, 0))
        connected_components(g)
        tracemalloc.start()
        try:
            comps = connected_components(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(comps.assign, self._scipy_labels(g))
        assert peak <= 20 * n


def degree_tax_bounds_check(g: Graph, p: Partition) -> bool:
    """Exact check of the convexity bounds on the degree tax: with x, y the
    largest and second-largest part volumes,

        1/k <= q_D,  (x/2m)^2 <= q_D <= x/2m,  q_D <= (x/2m)^2 + y/2m.
    """
    if g.m == 0:
        raise EmptyGraphError("degree tax undefined for empty graphs")
    if p.k < 2:
        raise InvalidPartitionError("bounds need at least two parts")
    vols = sorted(map(int, p.part_volumes(g)), reverse=True)
    x, y = vols[0], vols[1]
    s = sum(v * v for v in vols)
    two_m = 2 * g.m
    # q_D = s / (2m)^2; compare cross-multiplied in exact integers
    return (s * p.k >= two_m * two_m and x * x <= s <= x * two_m
            and s <= x * x + y * two_m)


class TestDegreeTaxBounds:
    def test_examples(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert degree_tax_bounds_check(g, connected_components(g))
        assert degree_tax_bounds_check(path(4), Partition([0, 0, 1, 1]))
        assert degree_tax_bounds_check(cycle(4), Partition(np.arange(4)))

    def test_needs_two_parts(self):
        with pytest.raises(InvalidPartitionError):
            degree_tax_bounds_check(path(4), Partition(np.zeros(4, dtype=int)))

    def test_random_pairs(self):
        # the four convexity bounds are theorems: 1000 random pairs, n <= 12
        for i in range(1000):
            rng = make_rng(7, i)
            g = random_graph_sized(rng, 2, 12)
            p = random_partition(rng, g.n)
            if p.k < 2:
                continue
            assert degree_tax_bounds_check(g, p)


class TestSubgraphs:
    def test_induced(self):
        g = cycle(5)
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.n == 3 and sub.edge_list() == [(0, 1), (1, 2)]

    def test_whole_vertex_set_shares_graph(self):
        g = cycle(5)
        assert induced_subgraph(g, np.arange(g.n)) is g

    def test_unsorted_and_repeated_vertices(self):
        # only a strictly increasing list skips the sort; any other order or
        # repeats give the subgraph of the sorted, de-duplicated set
        g = gen_gnm(40, 120, 5)
        rng = np.random.default_rng(5)
        for size in (1, 2, 17, 40):
            keep = np.sort(rng.choice(g.n, size, replace=False))
            want = induced_subgraph(g, keep)
            for vertices in (keep[::-1], rng.permutation(keep),
                             np.concatenate([keep, keep[:3]]), np.repeat(keep, 2)):
                sub = induced_subgraph(g, vertices)
                assert sub.n == want.n and sub.edge_list() == want.edge_list()
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(g, [5, 40, 3])
        # only a 1-D selection: [[0], [2]] would otherwise select vertices 0
        # and 2, and wider rows fail inside numpy's truth test
        for vertices in ([[0], [2]], [[0, 1], [2, 3]], [[2, 3]], [[0, 1, 2, 3]],
                         np.zeros((0, 2), dtype=np.int64), 2):
            with pytest.raises(ValueError, match="1-D sequence"):
                induced_subgraph(g, vertices)

    @pytest.mark.parametrize("vertices", [
        [0.9, 1.2], [True, False], np.array([0.0, 1.0]),
        np.array([0, 1], dtype=object)])
    def test_non_integer_ids(self, vertices):
        # a cast would truncate 0.9 and 1.2 to 0 and 1, and select True, False
        # as vertices 1 and 0
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            induced_subgraph(path(3), vertices)

    @pytest.mark.parametrize("vertices", [
        [], np.array([], dtype=bool), np.array([], dtype=object),
        np.array([], dtype=np.int32)])
    def test_empty_selection_any_dtype(self, vertices):
        sub = induced_subgraph(path(3), vertices)
        assert sub.n == 0 and sub.m == 0

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.lists(st.integers(0, n - 1), max_size=2 * n))))
    def test_matches_checked_build(self, case):
        # the subgraph is built without edge checks; the same selected,
        # relabelled edges through every check give the same graph
        n, chosen, vertices = case
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                         dtype=np.int64).reshape(-1, 2)[np.array(chosen, dtype=bool)]
        g = Graph(n, pairs)
        keep = sorted(set(vertices))
        new_id = {x: i for i, x in enumerate(keep)}
        edges = np.array([(new_id[u], new_id[v]) for u, v in g.edge_list()
                          if u in new_id and v in new_id], dtype=np.int64).reshape(-1, 2)
        want = Graph.from_arrays(len(keep), edges[:, 0], edges[:, 1])
        got = induced_subgraph(g, vertices)
        assert got.n == want.n
        for name in ("edge_u", "edge_v", "deg"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_increasing_vertices_skip_the_sort(self, monkeypatch):
        g = gen_gnm(40, 120, 5)
        want = induced_subgraph(g, [3, 7, 8, 30])

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")
        monkeypatch.setattr(np, "unique", no_sort)
        assert induced_subgraph(g, np.arange(g.n)) is g
        assert induced_subgraph(g, np.array([3, 7, 8, 30])).edge_list() == want.edge_list()

    def test_strip_isolated(self):
        # the idiom that readies a graph with isolated vertices for the
        # spectral operations
        g = Graph(5, [(1, 3)])
        sub = induced_subgraph(g, np.flatnonzero(g.deg > 0))
        assert sub.n == 2 and sub.edge_list() == [(0, 1)]


def _reference_edgelist(text):
    """Per-line reference reader: (None, n, edges) for a valid edge list,
    else (line, first-seen line or None, None) of the first faulty line."""
    fh = io.StringIO(text)
    try:
        n, m = (int(f) for f in fh.readline().split())
    except ValueError:
        return 1, None, None
    if n < 0 or m < 0:
        return 1, None, None
    seen = {}
    for line_no in range(2, m + 2):
        try:
            u, v = (int(f) for f in fh.readline().split())
        except ValueError:
            return line_no, None, None
        if not 0 <= u < v < n:
            return line_no, None, None
        if (u, v) in seen:
            return line_no, seen[(u, v)], None
        seen[(u, v)] = line_no
    for line_no, line in enumerate(fh, start=m + 2):
        if line.strip():
            return line_no, None, None
    return None, n, sorted(seen)


# Lines from a small pool of valid edges (so that repeats are common), any
# pair of small integers, and malformed lines, including endpoints that wrap
# into range when cast to int32 or do not fit int64.  The header's m lies
# within one of the line count.
_EDGE_LINES = st.one_of(
    st.sampled_from(["0 1", "0 2", "1 2", "1 3", "2 3"]),
    st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map("{0[0]} {0[1]}".format),
    st.sampled_from(["", "1", "0 1 2", "x 1", "1 1.5", "0 4294967297",
                     "0 99999999999999999999"]))
_EDGE_TEXTS = st.lists(_EDGE_LINES, max_size=10).flatmap(lambda lines: st.builds(
    lambda head, end: "\n".join([head, *lines]) + end,
    st.one_of(st.tuples(st.integers(0, 6),
                        st.integers(max(len(lines) - 1, 0), len(lines) + 1))
              .map("{0[0]} {0[1]}".format),
              st.sampled_from(["3", "a b", "-1 2", "3 1 1", ""])),
    st.sampled_from(["", "\n", "\n\n \n"])))


class TestEdgeListFormat:
    @given(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))
                   .filter(lambda e: e[0] < e[1]), max_size=30),
           st.integers(0, 3))
    def test_write_read_roundtrip(self, edges, isolated):
        n = max((v for _, v in edges), default=-1) + 1 + isolated
        g = Graph(n, sorted(edges))
        buf = io.StringIO()
        write_edgelist(g, buf)
        assert read_edgelist(io.StringIO(buf.getvalue())) == g

    @settings(max_examples=400)
    @given(_EDGE_TEXTS)
    def test_faults_match_per_line_reference(self, text):
        # the first faulty line in file order, and for a duplicate the line
        # that first held the edge, as a per-line reader finds them
        line, first_seen, edges = _reference_edgelist(text)
        if line is None:
            g = read_edgelist(io.StringIO(text))
            assert (g.n, g.edge_list()) == (first_seen, edges)
            return
        with pytest.raises(EdgeListFormatError) as err:
            read_edgelist(io.StringIO(text))
        seen = re.search(r"first seen on line (\d+)$", str(err.value))
        assert err.value.line == line
        assert (int(seen.group(1)) if seen else None) == first_seen

    def test_roundtrip(self):
        for i in range(20):
            g = random_graph_sized(make_rng(8, i), 2, 12, min_edges=0)
            buf = io.StringIO()
            write_edgelist(g, buf)
            assert read_edgelist(io.StringIO(buf.getvalue())) == g

    def test_header(self):
        g = read_edgelist(io.StringIO("3 1\n0 2\n"))
        assert g.n == 3 and g.edge_list() == [(0, 2)]

    def test_duplicate_line_numbered(self):
        with pytest.raises(EdgeListFormatError, match="line 3") as info:
            read_edgelist(io.StringIO("3 2\n0 1\n0 1\n"))
        assert info.value.line == 3

    def test_self_loop_line_numbered(self):
        with pytest.raises(EdgeListFormatError, match="line 2"):
            read_edgelist(io.StringIO("3 1\n1 1\n"))

    def test_order_enforced(self):
        with pytest.raises(EdgeListFormatError, match="0 <= u < v < n"):
            read_edgelist(io.StringIO("3 1\n2 1\n"))

    def test_truncated(self):
        with pytest.raises(EdgeListFormatError, match="ended early"):
            read_edgelist(io.StringIO("3 2\n0 1\n"))

    def test_bad_header(self):
        with pytest.raises(EdgeListFormatError, match="line 1"):
            read_edgelist(io.StringIO("3\n"))

    def test_extra_edge_line_numbered(self):
        with pytest.raises(EdgeListFormatError, match="^line 3: .* found more") as err:
            read_edgelist(io.StringIO("3 1\n0 1\n0 2\n"))
        assert err.value.line == 3

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n0 1\n\n \n")
        assert read_edgelist(str(path)).edge_list() == [(0, 1)]


class TestPartitionFormat:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=20))
    def test_write_read_roundtrip(self, labels):
        p = Partition.from_labels(labels)
        buf = io.StringIO()
        write_partition(p, buf)
        assert read_partition(io.StringIO(buf.getvalue())) == p

    def test_roundtrip(self):
        p = Partition([0, 1, 0, 2])
        buf = io.StringIO()
        write_partition(p, buf)
        assert buf.getvalue() == "4 3\n0\n1\n0\n2\n"
        assert read_partition(io.StringIO(buf.getvalue())) == p

    def test_header_mismatch(self):
        with pytest.raises(EdgeListFormatError, match="declares k=3"):
            read_partition(io.StringIO("2 3\n0\n1\n"))

    @pytest.mark.parametrize("text,line", [
        ("3 2\n0\n\n1\n", 3),   # blank id line
        ("3 2\n0\nx\n1\n", 3),  # non-integer id
        ("a b\n0\n", 1),        # non-integer header
        ("-1 0\n", 1),          # negative vertex count
        ("3 2\n0\n1 1\n1\n", 3),  # two tokens on an id line
        ("2 2\n0\n1\n1\n", 4),    # an id line after the n-th
        ("2 1\n0\n-1\n", 3),      # negative id
        ("3 2\n0\n2\n2\n", 3),    # an id outside 0..k-1
        ("3 3\n0\n2\n2\n", 1),    # a k that leaves part 1 empty
        ("0 0\n", 1),            # no vertices
    ])
    def test_malformed_lines_raise_typed_error(self, text, line):
        with pytest.raises(EdgeListFormatError, match=f"^line {line}: ") as err:
            read_partition(io.StringIO(text))
        assert err.value.line == line

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 2\n0\n1\n\n \n")
        assert read_partition(str(path)) == Partition([0, 1])


def _pairwise_definition_score(g, p):
    """Independent scoring route: the raw double sum over ordered vertex
    pairs inside each part of (1[uv edge] - d_u d_v / 2m) / 2m."""
    edges = set(g.edge_list())
    two_m = 2 * g.m
    total = Fraction(0)
    for part in p.parts():
        members = part.tolist()
        for u in members:
            for v in members:
                ind = 1 if (min(u, v), max(u, v)) in edges and u != v else 0
                total += Fraction(ind, two_m) - Fraction(
                    int(g.deg[u]) * int(g.deg[v]), two_m * two_m)
    return total


def _bfs_components(g):
    """Independent components route: plain BFS over adjacency lists."""
    indptr, nbrs = g.adjacency()
    seen = [-1] * g.n
    nxt = 0
    for start in range(g.n):
        if seen[start] != -1:
            continue
        seen[start] = nxt
        queue = [start]
        while queue:
            u = queue.pop()
            for v in nbrs[indptr[u]:indptr[u + 1]].tolist():
                if seen[v] == -1:
                    seen[v] = nxt
                    queue.append(v)
        nxt += 1
    return seen


class TestIndependentRoutes:
    def test_score_matches_pairwise_definition(self):
        for i in range(40):
            rng = make_rng(12, i)
            g = random_graph_sized(rng, 2, 10)
            p = random_partition(rng, g.n)
            assert modularity_exact(g, p) == _pairwise_definition_score(g, p)

    def test_components_match_bfs(self):
        for i in range(40):
            g = random_graph_sized(make_rng(13, i), 2, 14, min_edges=0)
            # 0-2 trailing isolated vertices: rows past the last edge_u
            g = Graph.from_arrays(g.n + i % 3, g.edge_u, g.edge_v)
            assert connected_components(g).assign.tolist() == _bfs_components(g)


class TestIsolatedEdgesFloor:
    def test_components_score_floor(self):
        # with X isolated edges among m >= 2, the components partition
        # scores at least min(X/m, 1/2); deterministic, any graph
        checked = 0
        for i in range(120):
            g = random_graph_sized(make_rng(14, i), 4, 12, min_edges=2)
            comp = connected_components(g)
            sizes = comp.part_sizes()
            comp_edges = np.bincount(comp.assign[g.edge_u], minlength=comp.k)
            x = int(np.count_nonzero((sizes == 2) & (comp_edges == 1)))
            if x < 1:
                continue
            q_cc = modularity_score(g, comp).score
            assert q_cc >= min(x / g.m, 0.5) - 1e-12
            checked += 1
        # matchings hit the floor's truncation branch exactly
        for m in range(2, 6):
            g = Graph(2 * m, [(2 * j, 2 * j + 1) for j in range(m)])
            q_cc = modularity_score(g, connected_components(g)).score
            assert q_cc == pytest.approx(1 - 1 / m, abs=1e-15)
            assert q_cc >= 0.5
            checked += 1
        assert checked >= 10
