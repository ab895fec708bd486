import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from matchbound.exact import matching_counts
from matchbound.graphs import (
    Bipartition,
    GraphFormatError,
    WeightedGraph,
    WeightSums,
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    skew_adjacency,
    weight_sums,
)

from conftest import (
    EVEN_MULTI_EDGES,
    MULTI_EDGES,
    RANDOM6_EDGES,
    grid_graph,
    has_odd_cycle,
    random_weighted_graph,
    relabel,
    sparse_graph,
)


class TestParse:
    def test_smallest_legal_graph(self):
        g = parse_graph("2 1\n1 2 4.0")
        assert g.n_vertices == 2
        assert g.edges == ((0, 1, 4.0),)

    def test_unweighted_triangle(self):
        g = parse_graph("3 3\n1 2 1\n2 3 1\n1 3 1")
        assert g.n_vertices == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))

    def test_comments_blank_lines_crlf(self):
        text = "# a comment\r\n\r\n3 2\r\n1 2 0.5\r\n# mid comment\r\n2 3 2.5\r\n"
        g = parse_graph(text)
        assert g.n_edges == 2
        assert g.edges[1] == (1, 2, 2.5)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("2 1\n1 1 1.0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("3 2\n1 2 1.0\n2 1 2.0")

    def test_duplicate_edge_names_its_later_line(self):
        with pytest.raises(GraphFormatError, match=r"^line 3: duplicate edge \(1, 2\)$"):
            parse_graph("3 2\n1 2 1\n2 1 3\n")
        # comments and blank lines count; the first repeat is named, not a later one
        text = "# c\n4 4\n1 2 1\n\n3 4 1\n# x\n4 3 2\n2 1 1\n"
        with pytest.raises(GraphFormatError, match=r"^line 7: duplicate edge \(3, 4\)$"):
            parse_graph(text)

    def test_first_bad_line_in_file_order_is_named(self):
        # line 3 repeats line 2 and line 4 is out of range: line 3 is the first bad line
        with pytest.raises(GraphFormatError, match=r"^line 3: duplicate edge \(1, 2\)$"):
            parse_graph("3 3\n1 2 1\n2 1 3\n1 4 1\n")
        # and a bad line before a repeat is named before it
        with pytest.raises(GraphFormatError, match=r"^line 3: self-loop at vertex 3$"):
            parse_graph("3 3\n1 2 1\n3 3 1\n2 1 1\n")

    def test_bad_weight_names_its_line_and_value(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3 2\n1 2 -3\n2 3 1\n")
        assert str(exc.value) == "line 2: non-positive or non-finite weight -3.0 on edge (1, 2)"
        assert exc.value.edge == 0
        with pytest.raises(GraphFormatError, match=r"^line 3: .* weight inf on edge \(3, 2\)$"):
            parse_graph("3 2\n1 2 1\n3 2 1e999\n")

    @pytest.mark.parametrize("text, line, edge", [
        ("# c\n\n3 2\n1 2 1\n# c\n\n1 1 1\n", 7, 1),
        ("\n3 2\n\n# c\n1 4 1\n2 3 1\n", 5, 0),
        ("3 2\r\n1 2 1\r\n\r\n# c\r\n2 3 0\r\n", 5, 1),
    ])
    def test_comments_and_blank_lines_count_toward_line_numbers(self, text, line, edge):
        with pytest.raises(GraphFormatError, match=f"^line {line}: ") as exc:
            parse_graph(text)
        assert exc.value.edge == edge

    def test_non_positive_weight_rejected(self):
        for w in ("0.0", "-3", "inf", "1e999", "nan"):
            with pytest.raises(GraphFormatError, match="non-positive"):
                parse_graph(f"2 1\n1 2 {w}")
            with pytest.raises(GraphFormatError, match="non-positive"):
                WeightedGraph(2, ((0, 1, float(w)),))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_graph("2 1\n1 3 1.0")
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_graph("2 1\n0 2 1.0")

    def test_malformed_header_rejected(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("two one\n1 2 1.0")
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("2\n1 2 1.0")
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(GraphFormatError, match="edges"):
            parse_graph("3 2\n1 2 1.0")

    def test_malformed_edge_line(self):
        with pytest.raises(GraphFormatError, match="expected 'u v w'"):
            parse_graph("2 1\n1 2")

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_weighted_graph(rng, int(rng.integers(2, 9)), 0.5)
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_preserves_awkward_weights(self):
        g = WeightedGraph(3, ((0, 1, 0.1), (1, 2, 1e-7)))
        assert parse_graph(serialize_graph(g)) == g


class TestSkewAdjacency:
    def test_k2_weight_four(self, k2_w4):
        adj = skew_adjacency(k2_w4)
        assert np.array_equal(adj.matrix, [[0.0, 2.0], [-2.0, 0.0]])

    def test_edgeless_graph(self):
        adj = skew_adjacency(WeightedGraph(3, ()))
        assert np.array_equal(adj.matrix, np.zeros((3, 3)))

    def test_triangle_upper_entries(self, triangle):
        adj = skew_adjacency(triangle)
        assert adj.matrix[0, 1] == adj.matrix[0, 2] == adj.matrix[1, 2] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_squared_entries_reproduce_weights(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_weighted_graph(rng, 7, 0.5)
        adj = skew_adjacency(g)
        assert np.array_equal(adj.matrix, -adj.matrix.T)
        squared = adj.matrix**2
        expected = np.zeros_like(squared)
        for u, v, w in g.edges:
            expected[u, v] = expected[v, u] = w
        assert np.allclose(squared, expected, rtol=1e-15, atol=0)


class TestHeaviestWeightSums:
    def test_components_of_interleaved_labels(self, multi):
        # K_{2,3} on {0, 7 | 4, 9, 11}, a triangle on {1, 5, 10}, K2 on {2, 8}; 3 and 6 isolated
        heaviest = {0: 2.1, 7: 1.6, 4: 1.3, 9: 1.6, 11: 2.1}  # K_{2,3}
        heaviest |= {1: 1.9, 5: 1.2, 10: 1.9, 2: 1.4, 8: 1.4}  # the triangle and K2
        sums = weight_sums(multi)
        assert sums.heaviest == math.fsum(heaviest.values())
        # K_{2,3}: the side {0, 7} (3.7) against {4, 9, 11} (5.0); K2: the side {2}
        covers = [[2.0 * heaviest[v] for v in (0, 7)], [heaviest[v] for v in (1, 5, 10)], [2.8]]
        assert sums.parts == tuple((math.fsum(c), n) for c, n in zip(covers, (5, 3, 2)))
        assert sums.cover_sum == math.fsum(x for c in covers for x in c)
        assert sums.bipartite is False

    def test_neighbor_lists_are_built_once(self, random6):
        # components, weight_sums and matching_counts all read the one cached copy
        nbrs = random6.adjacency
        assert random6.adjacency is nbrs
        assert nbrs[0] == ((1, 1.7), (2, 0.6), (5, 1.4))
        weight_sums(random6)
        matching_counts(random6)
        assert random6.adjacency is nbrs

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_sums_rounded_once(self, seed):
        rng = np.random.default_rng(500 + seed)
        g = random_weighted_graph(rng, int(rng.integers(2, 12)), 0.3)
        nbrs = g.adjacency
        heaviest = [Fraction(max((w for _, w in nb), default=0.0)) for nb in nbrs]
        sums = weight_sums(g)
        assert sums.heaviest == float(sum(heaviest))
        cover = [Fraction(c) for c in sums.cover]
        assert sums.cover_sum == float(sum(cover))
        assert [w for w, _ in sums.parts] == [
            float(sum(cover[v] for v in verts)) for verts, _ in g.components
        ]
        assert sums.heaviest <= g.max_weight * g.n_vertices

    def test_regular_unit_weights_meet_the_worst_case(self):
        sums = weight_sums(complete_graph(64))
        assert (sums.heaviest, sums.cover_sum, sums.parts) == (64.0, 64.0, ((64.0, 64),))

    def test_edgeless_graph(self):
        assert weight_sums(WeightedGraph(3, ())) == WeightSums(0.0, 0.0, (), (0.0,) * 3, True)

    def test_sum_past_the_largest_double_is_inf(self):
        sums = weight_sums(WeightedGraph(4, ((0, 1, 1.7e308), (2, 3, 1.0))))
        assert sums.heaviest == sums.cover_sum == math.inf
        assert sums.parts == ((math.inf, 2), (2.0, 2))


def suite_graphs():
    """The shapes of the suite's fixture graphs, with stars, a grid, sparse's 16 K_{2,6},
    a mixed graph and random graphs of unequal weights."""
    yield from (WeightedGraph(6, RANDOM6_EDGES), WeightedGraph(12, MULTI_EDGES))
    yield from (WeightedGraph(12, EVEN_MULTI_EDGES), WeightedGraph(4, ()), sparse_graph())
    yield from (complete_graph(n, 0.7) for n in (2, 3, 4, 13, 64))
    yield from (complete_bipartite_graph(m, n, 1.3) for m, n in ((1, 7), (2, 2), (2, 3), (13, 13)))
    yield from (path_graph(n) for n in (3, 6, 64))
    yield from (grid_graph(3, 4), WeightedGraph(7, ((0, 1, 0.5), (1, 2, 2.0), (3, 4, 3.0))))
    for seed in range(40):
        rng = np.random.default_rng(900 + seed)
        g = random_weighted_graph(rng, int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.7)))
        yield g if seed % 2 else relabel(g, rng)


class TestCover:
    """The fractional vertex cover behind the certificate's constant 2 nu_C per component."""

    @pytest.mark.parametrize("g", suite_graphs())
    def test_feasible_and_never_above_the_heaviest_weight_sums(self, g):
        sums = weight_sums(g)
        cover = sums.cover  # 2 c_v: c_u + c_v >= w_uv is cover[u] + cover[v] >= 2 w_uv
        assert all(cover[u] + cover[v] >= 2.0 * w for u, v, w in g.edges)
        assert all(c >= 0.0 for c in cover)
        heaviest = [max((w for _, w in nb), default=0.0) for nb in g.adjacency]
        for (two_nu, n), (verts, _) in zip(sums.parts, g.components, strict=True):
            assert two_nu <= math.fsum(heaviest[v] for v in verts)  # nu_C <= W_C / 2
            assert n == len(verts)
        assert sums.cover_sum <= sums.heaviest
        assert sums.bipartite == (bipartition(g) is not None)

    def test_star_and_sparse_copies_take_the_smaller_side(self):
        # K_{1,7}: the centre alone covers every edge, nu = w against W / 2 = 4 w
        assert weight_sums(complete_bipartite_graph(1, 7, 1.5)).parts == ((3.0, 8),)
        # each K_{2,6} of weight w: nu = 2 w against W / 2 = 4 w
        sums = weight_sums(sparse_graph())
        assert (sums.heaviest, sums.cover_sum) == (160.0, 80.0)
        weights = [0.5 + 1.5 * c / 15 for c in range(16)]
        assert [two_nu for two_nu, _ in sums.parts] == [4.0 * w for w in weights]

    def test_odd_cycles_keep_the_heaviest_weights_halved(self, random6):
        sums = weight_sums(random6)
        assert sums.cover == tuple(max(w for _, w in nb) for nb in random6.adjacency)
        assert sums.cover_sum == sums.heaviest == 11.5
        assert sums.bipartite is False


class TestBipartition:
    def test_triangle_has_none(self, triangle):
        assert bipartition(triangle) is None

    def test_k2(self, k2_w4):
        bip = bipartition(k2_w4)
        assert bip.m == bip.n == 1

    def test_path3(self, p3):
        bip = bipartition(p3)
        assert bip.left == (1,)
        assert bip.right == (0, 2)

    def test_isolated_vertices_join_larger_side(self):
        g = WeightedGraph(5, ((0, 1, 1.0), (0, 2, 1.0)))
        bip = bipartition(g)
        assert bip.left == (0,)
        assert set(bip.right) == {1, 2, 3, 4}

    def test_sides_ordered_m_le_n(self):
        g = complete_bipartite_graph(4, 2)
        bip = bipartition(g)
        assert bip.m <= bip.n

    def test_every_edge_crosses(self, k23):
        bip = bipartition(k23)
        left = set(bip.left)
        for u, v, _ in k23.edges:
            assert (u in left) != (v in left)

    def test_components_of_interleaved_labels(self, multi):
        # K_{2,3}, a triangle and K2 in order of least vertex, each in breadth-first
        # order from it (neighbours ascending); 3 and 6 are isolated
        assert multi.components == (
            ((0, 4, 9, 11, 7), Bipartition((0, 7), (4, 9, 11))),
            ((1, 5, 10), None),
            ((2, 8), Bipartition((2,), (8,))),
        )
        assert bipartition(multi) is None

    def test_exhaustive_small_graphs_match_odd_cycle_oracle(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(
                    (u, v, 1.0) for i, (u, v) in enumerate(pairs) if mask >> i & 1
                )
                g = WeightedGraph(n, edges)
                assert (bipartition(g) is None) == has_odd_cycle(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_match_odd_cycle_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_weighted_graph(rng, int(rng.integers(6, 11)), float(rng.uniform(0.1, 0.6)))
        assert (bipartition(g) is None) == has_odd_cycle(g)


class TestBuilders:
    def test_complete_graph(self):
        g = complete_graph(4, 2.0)
        assert g.n_edges == 6
        assert all(w == 2.0 for _, _, w in g.edges)

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.n_edges == 6
        assert bipartition(g) is not None

    def test_path(self):
        g = path_graph(5)
        assert g.n_edges == 4

    @pytest.mark.parametrize("bad, rule", [
        ((1, 5, 1.0), "vertex id out of range: edge (2, 6) on 4 vertices"),
        ((-1, 2, 1.0), "vertex id out of range: edge (0, 3) on 4 vertices"),
        ((3, 3, 1.0), "self-loop at vertex 4"),
        ((1, 0, 2.0), "duplicate edge (1, 2)"),
        ((2, 3, 0.0), "non-positive or non-finite weight 0.0 on edge (3, 4)"),
        ((2, 3, math.nan), "non-positive or non-finite weight nan on edge (3, 4)"),
    ])
    def test_constructor_names_the_first_bad_edge(self, bad, rule):
        # edge 2 breaks the rule, and edges 3 to 5 break all four among them: 2 is named
        edges = ((0, 1, 1.0), (1, 2, 1.0), bad, (0, 0, -1.0), (0, 9, 1.0), (1, 2, 1.0))
        with pytest.raises(GraphFormatError) as exc:
            WeightedGraph(4, edges)
        assert str(exc.value) == rule
        assert exc.value.edge == 2

    def test_constructor_validation(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(0, ())
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, ((0, 0, 1.0),))
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))
        with pytest.raises(GraphFormatError):
            WeightedGraph(3, ((0, 3, 1.0),))
