import math
import time

import numpy as np
import pytest

import matchbound.exact as exact
from matchbound.exact import (
    GraphTooLargeError,
    MatchingCounts,
    complete_bipartite_counts,
    complete_graph_counts,
    log_polynomial,
    matching_counts,
)
from matchbound.graphs import (
    GraphFormatError,
    WeightedGraph,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
)

from conftest import (
    brute_matching_counts,
    delete_edge,
    delete_vertices,
    grid_graph,
    random_weighted_graph,
    relabel,
    sparse_graph,
)


class TestMatchingCounts:
    def test_single_edge(self, k2_w4):
        assert matching_counts(k2_w4).counts == (1.0, 4.0)

    def test_triangle(self, triangle):
        assert matching_counts(triangle).counts == (1.0, 3.0)

    def test_k4(self, k4):
        assert matching_counts(k4).counts == (1.0, 6.0, 3.0)

    def test_star_has_zero_tail(self):
        star = WeightedGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        assert matching_counts(star).counts == (1.0, 3.0, 0.0)

    def test_edgeless(self):
        assert matching_counts(WeightedGraph(5, ())).counts == (1.0, 0.0, 0.0)

    def test_path_total_matchings_are_fibonacci(self):
        # the number of matchings of a path on n vertices is Fibonacci(n+1)
        fib = [1, 1]
        while len(fib) < 22:
            fib.append(fib[-1] + fib[-2])
        for n in (2, 5, 10, 20):
            total = sum(matching_counts(path_graph(n)).counts)
            assert total == fib[n]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_weighted_graph(rng, int(rng.integers(2, 8)), float(rng.uniform(0.3, 0.9)))
        got = matching_counts(g).counts
        want = brute_matching_counts(g)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_deletion_contraction(self, seed):
        rng = np.random.default_rng(400 + seed)
        weighted = seed % 2 == 0
        g = random_weighted_graph(rng, int(rng.integers(3, 8)), 0.6)
        if not weighted:
            g = WeightedGraph(g.n_vertices, tuple((u, v, 1.0) for u, v, _ in g.edges))
        if not g.edges:
            return
        whole = matching_counts(g).counts
        for idx, (u, v, w) in enumerate(g.edges):
            without_edge = matching_counts(delete_edge(g, idx)).counts
            without_ends = matching_counts(delete_vertices(g, {u, v})).counts
            for k in range(len(whole)):
                rhs = without_edge[k] if k < len(without_edge) else 0.0
                if k >= 1 and k - 1 < len(without_ends):
                    rhs += w * without_ends[k - 1]
                if weighted:
                    assert whole[k] == pytest.approx(rhs, rel=1e-12)
                else:
                    assert whole[k] == rhs  # integer counts are exact in doubles

    def test_first_two_invariants(self, random6):
        counts = matching_counts(random6)
        assert counts.counts[0] == 1.0
        assert counts.counts[1] == pytest.approx(
            sum(w for _, _, w in random6.edges), rel=1e-15
        )

    def test_table_cap(self, monkeypatch):
        # K_12 peaks at 163 states of 7 coefficients, 1,141 cells
        monkeypatch.setattr(exact, "TABLE_CAP", 1_000)
        started = time.monotonic()
        with pytest.raises(GraphTooLargeError, match="table cells"):
            matching_counts(complete_graph(12))
        assert time.monotonic() - started < 1.0

    def test_dense_graph_past_the_cap(self):
        with pytest.raises(GraphTooLargeError, match="table cells"):
            matching_counts(complete_graph(40))

    def test_sparse_graph_at_cap(self):
        # every graph on 24 vertices fits the table cap; a path needs 2 states
        counts = matching_counts(path_graph(24))
        assert counts.counts[0] == 1.0
        assert counts.counts[1] == 23.0


class TestProfileReach:
    """Graphs far past 24 vertices whose breadth-first bandwidth is small."""

    def test_long_path_is_fibonacci_under_any_labels(self):
        fib = [1, 1]  # fib[n] = Fibonacci(n + 1) matchings of the n-vertex path
        while len(fib) < 65:
            fib.append(fib[-1] + fib[-2])
        counts = matching_counts(path_graph(64)).counts
        assert sum(counts) == fib[64]
        for seed in range(3):
            shuffled = relabel(path_graph(64), np.random.default_rng(seed))
            assert matching_counts(shuffled).counts == counts

    def test_relabelled_grid_is_fast(self):
        # perfect matchings of the 4 x n grid: a(n) = a(n-1) + 5a(n-2) + a(n-3) - a(n-4)
        tilings = [1, 1, 5, 11]
        while len(tilings) < 17:
            tilings.append(tilings[-1] + 5 * tilings[-2] + tilings[-3] - tilings[-4])
        started = time.monotonic()
        counts = matching_counts(relabel(grid_graph(4, 16), np.random.default_rng(1))).counts
        assert time.monotonic() - started < 1.0
        assert counts == matching_counts(grid_graph(4, 16)).counts
        assert counts[-1] == tilings[16]

    def test_disjoint_union_is_the_convolution(self):
        # 16 disjoint K_{2,6}: the union's counts convolve its parts' counts
        want = np.ones(1)
        for c in range(16):
            want = np.convolve(want, complete_bipartite_counts(2, 6, 0.5 + 1.5 * c / 15).counts)
        got = matching_counts(sparse_graph()).counts
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_count_overflow_raises(self):
        # the 2 x 800 ladder has about 3 10^405 matchings
        with pytest.raises(GraphTooLargeError, match="overflows"):
            matching_counts(grid_graph(2, 800))


class TestPolynomialEval:
    def test_k2_at_one(self, k2_w4):
        assert matching_counts(k2_w4).eval(1.0) == 5.0

    def test_k4_at_one(self, k4):
        assert matching_counts(k4).eval(1.0) == 10.0

    def test_triangle_at_two(self, triangle):
        assert matching_counts(triangle).eval(2.0) == 5.0

    def test_log_eval_matches_linear(self, random6):
        for t in (0.25, 1.0, 3.0):
            assert matching_counts(random6).log_eval(t) == pytest.approx(
                math.log(matching_counts(random6).eval(t)), rel=1e-13
            )

    def test_log_eval_survives_huge_t(self):
        counts = complete_bipartite_counts(32, 32)
        big_t = 1e300
        v = counts.log_eval(big_t)  # t^32 alone would overflow
        assert v == pytest.approx(32 * math.log(big_t), rel=1e-12)

    def test_strictly_increasing_in_t(self, k4, triangle, random6):
        for g in (k4, triangle, random6):
            values = [matching_counts(g).eval(t) for t in (0.5, 1.0, 2.0, 4.0)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_t_rejected(self, k4):
        with pytest.raises(ValueError):
            matching_counts(k4).eval(-1.0)
        with pytest.raises(ValueError):
            matching_counts(k4).log_eval(0.0)


def scaled_log_sum_exp(g: WeightedGraph, t: float) -> float:
    """log Phi(t) term by term on the weights divided by the largest: log_polynomial's reference."""
    c = g.max_weight or 1.0
    scaled = WeightedGraph(g.n_vertices, tuple((u, v, w / c) for u, v, w in g.edges))
    terms = [
        math.log(p) + k * math.log(c) + (g.n_vertices // 2 - k) * math.log(t)
        for k, p in enumerate(matching_counts(scaled).counts)
        if p > 0.0
    ]
    lead = max(terms)
    return lead + math.log(math.fsum(math.exp(x - lead) for x in terms))


class TestLogPolynomial:
    MIXED7 = WeightedGraph(7, ((0, 1, 0.5), (1, 2, 2.0), (3, 4, 3.0), (4, 5, 0.25)))

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 2.0, 10.0, 1e3])
    def test_is_the_term_by_term_reference_bit_for_bit(self, random6, t):
        graphs = (self.MIXED7, path_graph(64), complete_bipartite_graph(3, 3, 1e300),
                  random6, sparse_graph())
        for g in graphs:
            assert log_polynomial(g, t) == scaled_log_sum_exp(g, t)

    def test_ladder_still_overflows(self):
        with pytest.raises(GraphTooLargeError, match="overflows"):
            log_polynomial(grid_graph(2, 800), 1.0)

    def test_weight_spread_past_the_double_range_raises(self):
        # 1e-300 / 1e300 underflows to 0: the scaled graph has a zero weight
        g = WeightedGraph(3, ((0, 1, 1e-300), (1, 2, 1e300)))
        with pytest.raises(GraphFormatError, match="non-positive or non-finite weight"):
            log_polynomial(g, 1.0)


class TestClosedForms:
    def test_bipartite_examples(self):
        assert complete_bipartite_counts(2, 2, 1.0).counts == (1.0, 4.0, 2.0)
        assert complete_bipartite_counts(1, 3, 2.0).counts == (1.0, 6.0, 0.0)
        assert complete_bipartite_counts(1, 1, 1.0).counts == (1.0, 1.0)

    def test_complete_examples(self):
        assert complete_graph_counts(4, 1.0).counts == (1.0, 6.0, 3.0)
        assert complete_graph_counts(2, 5.0).counts == (1.0, 5.0)
        assert complete_graph_counts(6, 1.0).counts == (1.0, 15.0, 45.0, 15.0)

    def test_complete_matches_recursion_and_brute_force(self):
        for n in range(1, 9):
            closed = complete_graph_counts(n, 1.0).counts
            assert closed == matching_counts(complete_graph(n)).counts
            assert list(closed) == brute_matching_counts(complete_graph(n))

    def test_complete_weighted_matches_recursion(self):
        for n in (3, 5, 7):
            closed = complete_graph_counts(n, 1.5).counts
            recursed = matching_counts(complete_graph(n, 1.5)).counts
            assert np.allclose(closed, recursed, rtol=1e-12, atol=0)

    def test_bipartite_matches_recursion_and_brute_force(self):
        for m in range(1, 5):
            for n in range(m, 5):
                closed = complete_bipartite_counts(m, n, 1.0).counts
                g = complete_bipartite_graph(m, n)
                assert closed == matching_counts(g).counts
                assert list(closed) == brute_matching_counts(g)

    def test_bipartite_weighted_matches_recursion(self):
        closed = complete_bipartite_counts(3, 4, 0.7).counts
        recursed = matching_counts(complete_bipartite_graph(3, 4, 0.7)).counts
        assert np.allclose(closed, recursed, rtol=1e-12, atol=0)

    def test_count_overflow_raises(self):
        for closed_form in (
            lambda: complete_bipartite_counts(200, 200),  # the int 200! passes the largest double
            lambda: complete_bipartite_counts(2, 2, 1e200),  # so does the float 1e200**2
            lambda: complete_graph_counts(4, 1e154),  # 3 * 1e308 rounds to inf
        ):
            with pytest.raises(GraphTooLargeError, match="overflows"):
                closed_form()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            complete_graph_counts(0)
        with pytest.raises(ValueError):
            complete_graph_counts(3, 0.0)
        with pytest.raises(ValueError):
            complete_bipartite_counts(3, 2)
        with pytest.raises(ValueError):
            complete_bipartite_counts(0, 2)


class TestRoots:
    @pytest.mark.parametrize("seed", range(8))
    def test_roots_real_and_negative(self, seed):
        rng = np.random.default_rng(500 + seed)
        g = random_weighted_graph(rng, int(rng.integers(3, 8)), 0.6)
        coeffs = matching_counts(g).counts
        roots = np.roots(coeffs)
        if len(roots) == 0:
            return
        assert np.abs(roots.imag).max() < 1e-8
        nonzero = roots[np.abs(roots) > 1e-12]
        assert (nonzero.real < 0).all()


def test_counts_length_contract():
    with pytest.raises(ValueError):
        MatchingCounts(4, (1.0, 2.0))
