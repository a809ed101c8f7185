"""graph-core: construction invariants, exact scoring, components, bounds,
and the two text formats."""

import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modgraph.graph import (EdgeListFormatError, EmptyGraphError, Graph,
                            InvalidPartitionError, Partition,
                            connected_components, induced_subgraph,
                            modularity_exact, modularity_score, read_edgelist,
                            read_partition, strip_isolated, write_edgelist,
                            write_partition)
from modgraph.generators import gen_gnm

from _samplers import random_graph_sized, random_partition, make_rng


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
        # from 2 edges per vertex up the sorted edge_u is counted by one
        # search per vertex, below that by bincount: the degrees agree on
        # every constructor either side of the rule
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

    def test_neighbors(self):
        g = path(4)
        assert sorted(g.neighbors(1).tolist()) == [0, 2]
        assert sorted(g.neighbors(0).tolist()) == [1]


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


_LABEL_LISTS = st.one_of(
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

    @pytest.mark.parametrize("assign, k, message", [
        ([0, -1, 1], None, "negative part id"),
        ([1, 0, 3, 3], None, "contiguous"),
        ([0, 1, 1], 3, "declared k=3 but assignment uses 2 parts"),
        ([0, 10**12], None, "contiguous"),
    ])
    def test_constructor_errors(self, assign, k, message):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPartitionError, match=message):
                Partition(assign, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an id of 10**12 is rejected before any per-id counter exists
        assert peak < 1 << 20

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

    def test_from_labels_rejects_empty(self):
        with pytest.raises(InvalidPartitionError, match="non-empty vector"):
            Partition.from_labels([])

    def test_from_labels_smallest_vertex_order(self):
        p = Partition.from_labels([7, 3, 7, 1])
        assert p.assign.tolist() == [0, 1, 0, 2]

    def test_from_parts(self):
        p = Partition.from_parts([[2, 3], [0, 1]], 4)
        assert p.assign.tolist() == [0, 0, 1, 1]
        with pytest.raises(InvalidPartitionError):
            Partition.from_parts([[0, 1], [1, 2]], 3)
        with pytest.raises(InvalidPartitionError):
            Partition.from_parts([[0, 1]], 3)

    def test_k_bounds(self):
        p = Partition.singletons(5)
        assert p.k == 5
        assert Partition.trivial(5).k == 1

    def test_parts_and_sizes(self):
        p = Partition([0, 1, 0, 2])
        assert [s.tolist() for s in p.parts()] == [[0, 2], [1], [3]]
        assert p.part_sizes().tolist() == [2, 1, 1]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_from_labels_idempotent(self, labels):
        p = Partition.from_labels(labels)
        assert p.canonical() == p
        assert p.k == len(set(labels))


class TestModularityScore:
    def test_single_edge_trivial(self):
        b = modularity_score(Graph(2, [(0, 1)]), Partition.trivial(2))
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
            modularity_score(Graph(3, []), Partition.trivial(3))

    def test_trivial_partition_scores_zero_everywhere(self):
        for i in range(50):
            g = random_graph_sized(make_rng(2, i), 2, 14)
            assert modularity_score(g, Partition.trivial(g.n)).score == 0.0

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
        assert degree_tax_bounds_check(cycle(4), Partition.singletons(4))

    def test_needs_two_parts(self):
        with pytest.raises(InvalidPartitionError):
            degree_tax_bounds_check(path(4), Partition.trivial(4))

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

    def test_strip_isolated(self):
        g = Graph(5, [(1, 3)])
        sub, kept = strip_isolated(g)
        assert kept.tolist() == [1, 3]
        assert sub.n == 2 and sub.edge_list() == [(0, 1)]


class TestEdgeListFormat:
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


class TestPartitionFormat:
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
    ])
    def test_malformed_lines_raise_typed_error(self, text, line):
        with pytest.raises(EdgeListFormatError, match=f"^line {line}: ") as err:
            read_partition(io.StringIO(text))
        assert err.value.line == line


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
    seen = [-1] * g.n
    nxt = 0
    for start in range(g.n):
        if seen[start] != -1:
            continue
        seen[start] = nxt
        queue = [start]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u).tolist():
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
