import decimal
import functools
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matchbound
from matchbound import cli, estimator
from matchbound.analysis import c1_constant
from matchbound.estimator import (
    RngStream,
    bounds_report,
    derive_seed,
    estimate_log_phi_tilde,
    log_gap_bound,
    plan_samples,
    sample_skew,
    tail_bound,
)
from matchbound.exact import complete_bipartite_counts, complete_graph_counts, matching_counts
from matchbound.graphs import (
    WeightedGraph,
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
    serialize_graph,
    skew_adjacency,
    weight_sums,
)
from matchbound.linalg import (
    NonPositiveDeterminantError,
    SkewSample,
    log_det_shifted,
)

from conftest import (
    RANDOM6_EDGES,
    delete_edge,
    disjoint_k2,
    estimate_with_samples,
    exact_det,
    exact_log,
    exact_reduction,
    gauss_hermite_expect,
    matrix_route,
    random_weighted_graph,
    sample_row_bytes,
    sparse_graph,
    stream_oracle,
)


class TestRngStream:
    def test_same_stream_bitwise_identical(self):
        a = RngStream(99).substream(5).normals(64)
        b = RngStream(99, 5).normals(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(99, 0).normals(64)
        b = RngStream(99, 1).normals(64)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normals(16), RngStream(2).normals(16))

    def test_moments(self):
        z = np.concatenate([RngStream(2024, i).normals(1000) for i in range(200)])
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01
        assert abs((z**3).mean()) < 0.02

    def test_uniforms_in_open_interval(self):
        u = RngStream(7, 3).uniforms(10_000)
        assert (u > 0).all() and (u < 1).all()

    def test_prefix_stability(self):
        # asking for more variates never changes the earlier ones
        full = RngStream(5, 8).normals(50)
        assert np.array_equal(full[:20], RngStream(5, 8).normals(20))

    def test_frozen_stream(self):
        # the stream's values are part of the contract: same seed, same bytes
        z = RngStream(2024, 7).normals(2016)
        want = ["0x1.cb82f90fe1bddp-1", "-0x1.22cb831da4896p-1", "0x1.06e60ff60851ap+0"]
        assert [x.hex() for x in z[:3]] == want
        assert [x.hex() for x in z[2014:]] == ["0x1.61f32f2e16b6cp-1", "0x1.ed6004d43bd10p+0"]
        assert RngStream(2024, 7).uniforms(1)[0].hex() == "0x1.23489d3ba1bacp-1"

    def test_derive_seed_spread(self):
        seeds = {derive_seed(3, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestSampleSkew:
    def test_edgeless_is_zero(self):
        for n in (4, 1):
            adj = skew_adjacency(WeightedGraph(n, ()))
            y = sample_skew(adj, RngStream(1), 0)
            assert np.array_equal(y.matrix, np.zeros((n, n)))

    def test_k2_entries(self, k2_w4):
        adj = skew_adjacency(k2_w4)
        x = RngStream(11, 3).normals(1)[0]
        y = sample_skew(adj, RngStream(11), 3)
        assert y.matrix[0, 1] == 2.0 * x
        assert y.matrix[1, 0] == -2.0 * x

    def test_entries_follow_row_major_pair_order(self, random6):
        adj = skew_adjacency(random6)
        z = RngStream(8, 2).normals(15)
        y = sample_skew(adj, RngStream(8), 2).matrix
        for p, (i, j) in enumerate(itertools.combinations(range(6), 2)):
            assert y[i, j] == adj.matrix[i, j] * z[p]
            assert y[j, i] == -y[i, j]
        assert all(y[i, i] == 0.0 for i in range(6))

    def test_gram_block_is_the_dense_sample(self):
        # the Gram route factors rows left x cols right of the same sample,
        # signs included, whichever side holds the larger label of an edge; edge (0, 3)
        # at a second weight keeps the 4-cycle K_{2,2} off the chain
        c4 = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0)))
        k23 = WeightedGraph(
            5, ((3, 0, 1.0), (3, 4, 2.0), (3, 2, 0.5), (1, 0, 1.5), (1, 4, 1.0), (1, 2, 3.0))
        )
        for g in (c4, k23):
            adj, bip = skew_adjacency(g), bipartition(g)
            plan = estimator._sample_plan(g, 1.0)
            (stack,) = plan.stacks
            z = estimator._normal_block(6, 0, 5, plan.blocks)
            u = estimator._matrices(stack, z)
            for i in range(5):
                y = sample_skew(adj, RngStream(6), i).matrix
                assert np.array_equal(u[i], y[np.ix_(bip.left, bip.right)])

    def test_determinism(self, k4):
        adj = skew_adjacency(k4)
        a = sample_skew(adj, RngStream(12), 7)
        b = sample_skew(adj, RngStream(12), 7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_off_edge_entries_exactly_zero(self, p3):
        adj = skew_adjacency(p3)
        y = sample_skew(adj, RngStream(0), 0)
        assert y.matrix[0, 2] == 0.0 and y.matrix[2, 0] == 0.0


class TestEstimate:
    def test_edgeless_is_deterministic(self):
        g = WeightedGraph(4, ())
        est = estimate_log_phi_tilde(g, math.e, 10, 123)
        assert est.mean_log == pytest.approx(2.0, abs=1e-14)
        assert est.std_err == 0.0
        # one vertex, no pair to draw for: det(sqrt(2) I_1) exactly
        single = estimate_log_phi_tilde(WeightedGraph(1, ()), 2.0, 10, 123)
        assert single.mean_log == pytest.approx(0.5 * math.log(2.0), rel=0, abs=1e-15)
        assert single.max_abs_variate == 0.0

    def test_k2_mean_log_matches_quadrature(self, k2_unit):
        want = gauss_hermite_expect(lambda x: np.log1p(x * x))
        est = estimate_log_phi_tilde(k2_unit, 1.0, 200_000, 7)
        assert abs(est.mean_log - want) < 3 * est.std_err + 1e-12
        assert want == pytest.approx(0.5334531798, abs=1e-9)

    def test_k2_mean_det_near_two(self, k2_unit):
        est = estimate_log_phi_tilde(k2_unit, 1.0, 200_000, 7)
        assert abs(est.mean_det - 2.0) < 4 * est.std_err_det

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_determinant_moments_under_huge_weights(self, k23):
        # det(sqrt(c) I + sqrt(c) Y) = c^(N/2) det(I + Y): scaling t and every
        # weight by c shifts each log-determinant of K_{2,3} by 2.5 log c
        unit = estimate_log_phi_tilde(k23, 1.0, 100, 4)
        scaled = {}
        for c in (1e80, 1e300):
            g = WeightedGraph(5, tuple((u, v, c) for u, v, _ in k23.edges))
            scaled[c] = est = estimate_log_phi_tilde(g, c, 100, 4)
            want = unit.log_mean_det + 2.5 * math.log(c)
            assert est.log_mean_det == pytest.approx(want, rel=1e-12)
        # determinants near 1e200: their squares overflow, their mean and spread do not
        assert scaled[1e80].mean_det == pytest.approx(unit.mean_det * 1e200, rel=1e-11)
        assert scaled[1e80].std_err_det == pytest.approx(unit.std_err_det * 1e200, rel=1e-11)
        # near 1e750 neither fits in a double
        assert scaled[1e300].mean_det == math.inf
        assert scaled[1e300].std_err_det == math.inf

    def test_jensen_direction(self, k4, triangle, random6):
        for g in (k4, triangle, random6):
            for seed in (0, 1):
                est = estimate_log_phi_tilde(g, 1.0, 500, seed)
                assert math.exp(est.mean_log) <= est.mean_det * (1 + 1e-12)

    def test_bitwise_determinism(self, k23):
        a, a_samples = estimate_with_samples(k23, 0.5, 9000, 42)
        b, b_samples = estimate_with_samples(k23, 0.5, 9000, 42)
        assert np.array_equal(a_samples, b_samples)
        assert a.mean_log == b.mean_log and a.std_err == b.std_err

    def test_thread_count_invariance(self, k23):
        one, one_samples = estimate_with_samples(k23, 1.0, 9000, 5, threads=1)
        many, many_samples = estimate_with_samples(k23, 1.0, 9000, 5, threads=8)
        assert np.array_equal(one_samples, many_samples)
        assert one.mean_log == many.mean_log

    def test_fast_path_agrees_with_dense(self, k23, p6):
        # bipartite graphs take the Gram route; each sample must match the
        # dense log-determinant of the same draw, also at a small t, where
        # t + s^2 is near s^2. On the 4-cycle the left vertex 2 has the larger
        # label on edge (1, 2): the Gram block must carry the template's sign there.
        # One edge at a second weight keeps K_{2,3} and the 4-cycle off the chain
        c4 = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0)))
        cases = ((matrix_route(k23), 1.0, 1e-11), (p6, 1e-2, 1e-10), (c4, 1e-2, 1e-10),
                 (c4, 1.0, 1e-11))
        for g, t, atol in cases:
            assert not any(s.dense for s in estimator._sample_plan(g, t).stacks)
            _, fast_samples = estimate_with_samples(g, t, 3000, 9)
            adj = skew_adjacency(g)
            dense = [log_det_shifted(sample_skew(adj, RngStream(9), i), t) for i in range(3000)]
            assert np.allclose(fast_samples, dense, rtol=0, atol=atol)

    @pytest.mark.parametrize("graph, t", [("k4", 1e-2), ("random6", 1e-2), ("random6", 1.0)])
    def test_dense_route_is_the_oracle_bitwise(self, request, graph, t):
        # one component on the dense route factors the oracle's own matrix, whether
        # by elimination or (past GROWTH_CAP: 58% of K4's draws at t = 1e-2, one edge
        # at weight 1.5 keeping it off the chain) by slogdet
        g = matrix_route(request.getfixturevalue(graph))
        _, per_sample = estimate_with_samples(g, t, 1000, 5)
        assert np.array_equal(per_sample, dense_oracle(g, t, 1000, 5))

    @pytest.mark.parametrize(
        "graph, t, knob, size",
        [
            pytest.param(graph, t, knob, size, id=f"{graph}-{t}{suffix}")
            for knob, size, suffix in (
                ("_BATCH", 7, ""), ("_CHUNK", 3, "-chunk3"), ("_BATCH_BYTES", 1, "-bytes1")
            )
            for graph, t in (("random6", 1.0), ("k23", 0.5), ("k4", 1e-2), ("p6", 1e-2),
                             ("multi", 1.0), ("even_multi", 1e-2), ("k13", 1.0),
                             ("k13_13", 1.0), ("two_k13_13", 1.0))
        ],
    )
    def test_batch_size_never_changes_a_sample(self, request, monkeypatch, graph, t, knob, size):
        g = matrix_route(request.getfixturevalue(graph))  # the chain's cases are TestChain's
        default, default_samples = estimate_with_samples(g, t, 100, 3)
        monkeypatch.setattr(estimator, knob, size)
        small, small_samples = estimate_with_samples(g, t, 100, 3)
        assert np.array_equal(default_samples, small_samples)
        for field in ("mean_log", "std_err", "log_mean_det", "log_std_err_det"):
            assert getattr(default, field) == getattr(small, field), field

    def test_bad_sample_count(self, k4):
        with pytest.raises(ValueError):
            estimate_log_phi_tilde(k4, 1.0, 0, 0)

    def test_sample_count_past_the_indices_rejected(self, k4):
        # sample indices are uint64: 2**64 samples at most, refused before any is drawn
        with pytest.raises(ValueError, match=r"from 1 to 2\*\*64, one per uint64 index"):
            estimate_log_phi_tilde(k4, 1.0, 2**64 + 1, 0)

    def test_last_sample_indices_are_drawn(self, random6):
        # the last batch of k = 2**64 samples: its streams are the top uint64 indices
        plan = estimator._sample_plan(random6, 1.0)
        values, _, _ = estimator._batch(plan, 1.0, 3, 2**64 - 3, 3)
        adj = skew_adjacency(random6)
        want = [log_det_shifted(sample_skew(adj, RngStream(3), 2**64 - 3 + i), 1.0)
                for i in range(3)]
        assert np.allclose(values, want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
    def test_nonfinite_t_rejected(self, k4, t):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_log_phi_tilde(k4, t, 10, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_threads_rejected(self, k4, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_log_phi_tilde(k4, 1.0, 10, 0, threads=threads)

    @pytest.mark.parametrize(
        "threads, knob, size",
        [(1, None, 0), (2, None, 0), (2, "_BATCH", 7), (2, "_BATCH_BYTES", 1)],
    )
    @pytest.mark.parametrize("graph, t", [("random6", 1.0), ("k23", 0.5), ("multi", 1.0)])
    def test_reduction_is_exact_bitwise(self, request, monkeypatch, graph, t, threads, knob, size):
        if knob:
            monkeypatch.setattr(estimator, knob, size)
        est, per_sample = estimate_with_samples(
            request.getfixturevalue(graph), t, 3000, 8, threads=threads
        )
        mean_log, std_err = exact_reduction(per_sample)
        assert est.mean_log.hex() == mean_log.hex()
        assert est.std_err.hex() == std_err.hex()

    def test_mean_log_is_rounded_once(self, k23):
        # here fsum / k rounds twice and misses the exact mean by an ulp
        est, per_sample = estimate_with_samples(k23, 0.5, 3000, 7)
        mean_log, _ = exact_reduction(per_sample)
        assert est.mean_log.hex() == mean_log.hex()
        assert math.fsum(per_sample.tolist()) / 3000 != mean_log

    def test_memory_per_sample_is_bounded(self, random6):
        # no storage grows with k: each thread keeps a running sum, and no batch leaves a
        # future or a kept value behind
        def peak(k, threads):
            tracemalloc.start()
            try:
                estimate_log_phi_tilde(random6, 1.0, k, 3, threads=threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1 << 12, 1)  # one-time allocations out of the way
        # on one thread the peak repeats to within a few KB: 2^16 samples (6 batches) and
        # 2^20 (86) differ by about 4 KB, where a value kept per sample would add 8 MB
        assert peak(1 << 20, 1) - peak(1 << 16, 1) < 64 << 10
        # on two it moves with what the other thread holds at that instant, so it is held
        # to a budget: per thread, a batch's variates and matrices (_batch_rows' rows of
        # sample_row_bytes) and as much again for its kernel and reduction, plus 1 MiB;
        # at 2^21 samples a value kept per sample would add 16 MB
        rows = estimator._batch_rows(estimator._sample_plan(random6, 1.0))
        assert peak(1 << 21, 2) < 2 * 2 * rows * sample_row_bytes(random6) + (1 << 20)

    def test_gge_sanity_even(self, k4):
        # arithmetic mean of determinants is unbiased for the polynomial value
        est = estimate_log_phi_tilde(k4, 1.0, 400_000, 21)
        want = matching_counts(k4).eval(1.0)
        assert abs(est.mean_det - want) < 4 * est.std_err_det

    def test_gge_sanity_odd(self, triangle):
        est = estimate_log_phi_tilde(triangle, 2.0, 400_000, 22)
        want = math.sqrt(2.0) * matching_counts(triangle).eval(2.0)
        assert abs(est.mean_det - want) < 4 * est.std_err_det


class TestBatchRows:
    """Rows per batch come from the plan's bytes per sample, at most _BATCH."""

    def test_k64_fills_the_budget(self):
        g = matrix_route(complete_graph(64))  # one edge at a second weight: the dense route
        rows, row_bytes = estimator._batch_rows(estimator._sample_plan(g, 1.0)), sample_row_bytes(g)
        assert rows == 514
        assert rows * row_bytes <= estimator._BATCH_BYTES < (rows + 1) * row_bytes

    @pytest.mark.parametrize("graph", ["random6", "sparse"])
    def test_small_samples_keep_the_row_cap(self, request, graph):
        # random6 takes the whole cap; sparse on the Gram route (one edge of each copy at
        # a second weight), at 3,568 bytes a row, fills the budget first
        g = matrix_route(sparse_graph() if graph == "sparse" else request.getfixturevalue(graph))
        rows, row_bytes = estimator._batch_rows(estimator._sample_plan(g, 1.0)), sample_row_bytes(g)
        assert estimator._BATCH == 12288
        assert rows == {"random6": estimator._BATCH, "sparse": 7053}[graph]
        assert rows * row_bytes <= estimator._BATCH_BYTES

    def test_edgeless_plan_takes_at_least_one_row(self):
        g = WeightedGraph(4, ())
        assert sample_row_bytes(g) == 0
        assert estimator._batch_rows(estimator._sample_plan(g, 1.0)) >= 1

    def test_row_cap_and_one_row_floor(self, monkeypatch):
        plan = estimator._sample_plan(matrix_route(complete_graph(64)), 1.0)
        monkeypatch.setattr(estimator, "_BATCH", 7)
        assert estimator._batch_rows(plan) == 7
        monkeypatch.setattr(estimator, "_BATCH_BYTES", 1)
        assert estimator._batch_rows(plan) == 1

    @pytest.mark.parametrize("n", [64, 128])
    def test_peak_memory_is_bounded_by_the_budget(self, n):
        # K128 peaked at 187 MiB with 4096-row batches; nothing is kept per sample. One
        # edge at a second weight keeps K_n on the dense route
        g, k = matrix_route(complete_graph(n)), 1000
        tracemalloc.start()
        try:
            estimate_log_phi_tilde(g, 1.0, k, 1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * estimator._BATCH_BYTES


def sixteen_k26() -> WeightedGraph:
    """The sparse workload's shape: 16 disjoint K_{2,6} of unit weight, 128 vertices, but
    for one edge of each at weight 1.5, which keeps them on the Gram route."""
    k26 = [(u, 2 + v) for u in range(2) for v in range(6)]
    return matrix_route(WeightedGraph(128, tuple((8 * c + u, 8 * c + v, 1.0) for c in range(16)
                                                 for u, v in k26)))


def four_k23() -> WeightedGraph:
    """Four disjoint K_{2,3}, no two edges of equal weight: 20 vertices."""
    edges = tuple(
        (5 * c + u, 5 * c + 2 + v, w * (1 + 0.1 * (3 * u + v)))
        for c, w in enumerate((0.6, 0.9, 1.3, 1.8))
        for u in range(2)
        for v in range(3)
    )
    return WeightedGraph(20, edges)


def dense_oracle(g, t, k, seed):
    """Each sample's log-determinant from the whole N x N matrix."""
    adj = skew_adjacency(g)
    return [log_det_shifted(sample_skew(adj, RngStream(seed), i), t) for i in range(k)]


class TestComponents:
    def test_block_draws_are_the_stream_columns(self):
        rng = np.random.default_rng(5)
        full = estimator._normal_block(17, 40, 9, np.arange(300))
        # row 1 is stream 41, and normal p lies in block p // 2
        assert np.array_equal(full[1, :45], RngStream(17, 41).normals(45))
        for _ in range(20):
            blocks = np.sort(rng.choice(300, size=int(rng.integers(1, 40)), replace=False))
            cols = (2 * blocks[:, None] + np.arange(2)).ravel()
            assert np.array_equal(estimator._normal_block(17, 40, 9, blocks), full[:, cols])

    @pytest.mark.parametrize(
        "rows, first", [(1, 0), (1, 12_345), (37, 0), (37, 12_345), (4096, 12_345)]
    )
    def test_chunked_stream_is_the_oracle(self, monkeypatch, random6, rows, first):
        # chunk sizes 1 and 5 put chunk edges inside a batch; the stream must not see them
        rng = np.random.default_rng(rows + first)
        graphs = (matrix_route(complete_graph(64)), sixteen_k26(), random6)
        block_sets = [estimator._sample_plan(g, 1.0).blocks for g in graphs]
        block_sets += [np.sort(rng.choice(4000, size=int(rng.integers(1, 300)), replace=False))
                       for _ in range(3)]
        chunks = (1, 5, estimator._CHUNK)
        for blocks in block_sets:
            want = stream_oracle(31, first, rows, blocks)
            for chunk in chunks:
                monkeypatch.setattr(estimator, "_CHUNK", chunk)
                assert np.array_equal(estimator._normal_block(31, first, rows, blocks), want)

    def test_only_edge_blocks_are_drawn(self, multi):
        plan = estimator._sample_plan(multi, 1.0)
        position = {pair: p for p, pair in enumerate(itertools.combinations(range(12), 2))}
        pairs = [position[min(u, v), max(u, v)] for u, v, _ in multi.edges]
        assert plan.blocks.tolist() == sorted({p // 2 for p in pairs})
        assert plan.shift == 0.0  # the isolated vertices 3 and 6 add (1/2) log 1 each
        assert estimator._sample_plan(multi, 3.0).shift == math.log(3.0)
        assert sorted((s.dense, s.coef.shape) for s in plan.stacks) == [
            (False, (1, 1, 1)), (False, (1, 2, 3)), (True, (1, 3, 3))
        ]

    def test_plan_peak_memory(self):
        # P2000 is one bipartite component: its 1000 x 1000 Gram block of coefficients and
        # indices takes 4 N^2 bytes, and the plan builds no N x N array besides it
        n = 2000
        g = path_graph(n)
        tracemalloc.start()
        try:
            estimator._sample_plan(g, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 8 * n * n

    @pytest.mark.parametrize("graph", ["isolated", "disjoint-k2"])
    def test_plan_memory_is_linear(self, graph):
        # the plan reads the edge list and g.components, never an N x N array: 2,000
        # isolated vertices and 1,000 disjoint K2 each peaked at 62 MiB with the N x N
        # template and column map, and now stay within 1 KiB a vertex or edge
        n = 2000
        pairs = range(0 if graph == "isolated" else n // 2)
        edges = tuple((2 * i, 2 * i + 1, 1.0 + i) for i in pairs)
        g = WeightedGraph(n, edges)
        # numpy's first calls allocate once
        estimator._sample_plan(matrix_route(path_graph(3)), 1.0)
        tracemalloc.start()
        try:
            plan = estimator._sample_plan(g, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * (n + len(edges))
        assert len(plan.least) == len(edges)

    @pytest.mark.parametrize(
        "graph, t, atol", [("multi", 1.0, 1e-11), ("even_multi", 1.0, 1e-11),
                           ("even_multi", 1e-2, 1e-10)]
    )
    def test_each_sample_is_the_whole_matrix_log_det(self, request, graph, t, atol):
        g = request.getfixturevalue(graph)
        _, per_sample = estimate_with_samples(g, t, 600, 9)
        assert np.allclose(per_sample, dense_oracle(g, t, 600, 9), rtol=0, atol=atol)

    def test_isolated_vertices_add_half_log_t(self):
        # the star's pairs all hold vertex 0, so their stream positions do not
        # depend on the vertex count
        star = ((0, 1, 1.5), (0, 2, 0.5), (0, 3, 2.0))
        alone, alone_samples = estimate_with_samples(WeightedGraph(4, star), 0.7, 300, 2)
        padded, padded_samples = estimate_with_samples(WeightedGraph(6, star), 0.7, 300, 2)
        shift = 2 * (0.5 * math.log(0.7))
        assert np.array_equal(padded_samples, alone_samples + shift)
        assert padded.log_mean_det == alone.log_mean_det + shift
        assert padded.log_std_err_det == pytest.approx(alone.log_std_err_det + shift, rel=1e-14)
        assert padded.max_abs_variate == alone.max_abs_variate

    def test_max_abs_variate_counts_edge_normals_only(self, multi):
        plan = estimator._sample_plan(multi, 1.0)
        z = estimator._normal_block(4, 0, 300, plan.blocks)
        edges = np.setdiff1d(np.arange(z.shape[1]), plan.idle)
        assert len(edges) == multi.n_edges < z.shape[1]
        est = estimate_log_phi_tilde(multi, 1.0, 300, 4)
        assert est.max_abs_variate == np.abs(z[:, edges]).max() < np.abs(z).max()

    def test_single_component_mean_det_is_the_whole_sample_mean(self, random6, k23):
        # one component: the exact sums give the plain sample mean
        for g in (random6, k23):
            est, per_sample = estimate_with_samples(g, 0.8, 9000, 13)
            top = per_sample.max()
            scaled = np.exp(per_sample - top)
            assert est.log_mean_det == pytest.approx(top + math.log(scaled.mean()), rel=1e-12)
            log_se = top + math.log(scaled.std(ddof=1) / math.sqrt(len(scaled)))
            assert est.log_std_err_det == pytest.approx(log_se, rel=1e-12)

    @pytest.mark.parametrize("graph", ["multi", "even_multi"])
    def test_mean_det_is_the_product_over_components(self, request, graph):
        # each component's determinants from the whole matrix's diagonal
        # blocks; isolated vertices contribute t^(1/2) each
        g, t, k = request.getfixturevalue(graph), 0.9, 400
        adj = skew_adjacency(g)
        blocks = [np.ix_(verts, verts) for verts, _ in g.components]
        dets = np.array([
            [math.exp(log_det_shifted(SkewSample(y[b]), t)) for b in blocks]
            for y in (sample_skew(adj, RngStream(3), i).matrix for i in range(k))
        ])
        isolated = g.n_vertices - sum(len(v) for v, _ in g.components)
        mean, var = dets.mean(axis=0), dets.var(axis=0, ddof=1)
        est = estimate_log_phi_tilde(g, t, k, 3)
        want = math.fsum(np.log(mean)) + 0.5 * isolated * math.log(t)
        assert est.log_mean_det == pytest.approx(want, rel=1e-12)
        rel2 = math.fsum(var / (k * mean**2))
        assert est.log_std_err_det == pytest.approx(want + 0.5 * math.log(rel2), rel=1e-12)

    def test_gram_route_only_where_u_ut_keeps_t(self):
        # forming U U^T rounds t + s^2 by about n_C eps max_w: the path 3-1-4-2
        # (n_C 4, max_w 2.5e219) keeps the Gram route only from t of about 2.2e207
        path = WeightedGraph(4, ((2, 0, 1.5e-166), (0, 3, 1.95e39), (3, 1, 2.5e219)))

        def routes(g, t):
            return [s.dense for s in estimator._sample_plan(g, t).stacks]

        assert routes(path, 2.65) == [True]
        assert routes(path, 1e300) == [False]
        assert routes(sixteen_k26(), 1.0) == [False]  # two-weight K_{2,6}: one Gram stack
        _, per_sample = estimate_with_samples(path, 2.65, 40, 1)
        adj = skew_adjacency(path)
        for i, value in enumerate(per_sample):
            y = sample_skew(adj, RngStream(1), i).matrix + math.sqrt(2.65) * np.eye(4)
            exact = exact_log(exact_det(y))
            assert abs(value - exact) <= 1e-14 * abs(exact)

    def test_gram_route_only_where_t_plus_u_ut_is_finite(self):
        # every |z| < 8.66, so no entry of t I + U U^T exceeds t + n_C 75 max_w
        def routes(w, t):
            k2 = WeightedGraph(2, ((0, 1, w),))
            return [s.dense for s in estimator._sample_plan(k2, t).stacks]

        assert routes(1e300, 1e306) == [False]
        for t in (1e306, 1e307, 1.7e308):
            assert routes(1e308, t) == [True]

    @pytest.mark.parametrize("order", [3, 13])
    def test_health_check_names_sample_and_component(self, monkeypatch, order):
        # two components of one shape share a stack: member-major up to SMALL_ORDER,
        # sample-major past it; either way the message names the sample drawn and the
        # component's least vertex, 1-based
        g = matrix_route(WeightedGraph(2 * order, tuple(
            (c * order + u, c * order + v, 1.0)
            for c in range(2) for u, v in itertools.combinations(range(order), 2)
        )))  # one edge of each at a second weight: the dense route, not the chain
        kernel = estimator.skew_logdet_batch
        row = 1 * 10 + 7 if order <= 12 else 7 * 2 + 1  # sample 7, component 1, of 10 samples

        def corrupt(y, t):
            y[row, 0, 1] = np.nan
            return kernel(y, t)

        monkeypatch.setattr(estimator, "skew_logdet_batch", corrupt)
        with pytest.raises(NonPositiveDeterminantError, match=(
            rf"^sample 7, component with least vertex {order + 1}: log det nan "
            r"where a positive finite determinant is guaranteed$"
        )):
            estimate_log_phi_tilde(g, 1.0, 10, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [None, 7, 5])
    def test_named_sample_does_not_depend_on_the_batch_size(self, monkeypatch, rows, threads):
        # the triangle on vertices 1-3 fails at sample 9 and the 4-cycle on 4-7 at sample 2:
        # whatever the batch size and thread count, the lowest failing sample is named;
        # one edge of each at weight 2 keeps both off the chain
        g = WeightedGraph(7, ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0),
                              (3, 4, 2.0), (4, 5, 1.0), (5, 6, 1.0), (3, 6, 1.0)))
        plan = estimator._sample_plan(g, 1.0)
        assert [s.dense for s in plan.stacks] == [True, False]
        edge_cols = [s.index[0][s.coef[0] != 0][0] for s in plan.stacks]  # one edge of each
        block = estimator._normal_block

        def poisoned(seed, first, n, blocks):
            z = block(seed, first, n, blocks)
            for sample, col in zip((9, 2), edge_cols):
                if first <= sample < first + n:
                    z[sample - first, col] = np.nan
            return z

        if rows is not None:
            monkeypatch.setattr(estimator, "_BATCH", rows)
        monkeypatch.setattr(estimator, "_normal_block", poisoned)
        with pytest.raises(NonPositiveDeterminantError,
                           match="^sample 2, component with least vertex 4: log det nan where "):
            estimate_log_phi_tilde(g, 1.0, 20, 0, threads=threads)

    @pytest.mark.parametrize("graph, entry, route", [
        (complete_graph(3), 3.0, (True, True)),  # eliminated: the second pivot is 1 - 3^2
        (complete_graph(3), 1e3, (True, True)),  # ||Y||_F^2 past GROWTH_CAP: slogdet's sign -1
        (complete_bipartite_graph(2, 2), np.nan, (False, True)),  # U U^T eliminated
        (complete_bipartite_graph(13, 13), np.nan, (False, False)),  # m = 13: slogdet
    ], ids=["dense-small", "dense-slogdet", "gram-small", "gram-past-small-order"])
    def test_every_route_reaches_the_health_check(self, monkeypatch, graph, entry, route):
        # one component after an isolated vertex 1, so its least vertex is 2, and row 7 of
        # its stack is sample 7 in either layout; the kernel returns the failure as a value.
        # One edge at a second weight keeps each graph off the chain
        g = WeightedGraph(graph.n_vertices + 1, tuple(
            (u + 1, v + 1, w) for u, v, w in matrix_route(graph).edges
        ))
        (stack,) = estimator._sample_plan(g, 1.0).stacks
        assert (stack.dense, stack.small) == route
        name = "skew_logdet_batch" if stack.dense else "gram_logdet_batch"
        kernel = getattr(estimator, name)

        def corrupt(mats, t):
            mats[7, 0, 1] = entry
            if stack.dense:
                mats[7, 1, 0] = entry  # a symmetric pair: no longer antisymmetric
            return kernel(mats, t)

        monkeypatch.setattr(estimator, name, corrupt)
        with pytest.raises(NonPositiveDeterminantError,
                           match="^sample 7, component with least vertex 2: log det nan where "):
            estimate_log_phi_tilde(g, 1.0, 10, 0)

    @pytest.mark.parametrize("k, threads, shares", [
        (1, 64, 1), (21, 8, 3), (22, 8, 4), (22, 3, 3), (21, 1, 1), (1000, 8, 8)
    ])
    def test_no_share_without_a_batch(self, monkeypatch, random6, k, threads, shares):
        # batches of 7 rows: k = 21 is 3 batches and 22 is 4; each share but the caller's
        # goes to a worker, and one sample starts none, whatever the thread count
        monkeypatch.setattr(estimator, "_BATCH", 7)
        want = astuple(estimate_log_phi_tilde(random6, 1.0, k, 3, threads=1))
        submitted, start, started = [], threading.Thread.start, []

        class Recording(estimator.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        def counted_start(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(estimator, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(threading.Thread, "start", counted_start)
        assert astuple(estimate_log_phi_tilde(random6, 1.0, k, 3, threads=threads)) == want
        assert len(submitted) == shares - 1
        assert len(started) <= shares - 1

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_lowest_failing_batch_is_raised(self, monkeypatch, random6, threads, error):
        # batches 1 and 2 fail, in two threads' shares from 2 threads on: batch 1's error
        # is raised at every thread count, and the shares stop short of the 998 others;
        # a Ctrl-C stops them as well
        monkeypatch.setattr(estimator, "_BATCH", 7)
        batch, starts = estimator._batch, []

        def failing(plan, t, seed, start, count):
            starts.append(start)
            if start in (7, 14):
                raise error(f"batch at {start}")
            return batch(plan, t, seed, start, count)

        monkeypatch.setattr(estimator, "_batch", failing)
        with pytest.raises(error, match="^batch at 7$"):
            estimate_log_phi_tilde(random6, 1.0, 7 * 1000, 0, threads=threads)
        assert 7 in starts and len(starts) < 500

    def test_lowest_failing_batch_under_thread_switching(self, monkeypatch, random6):
        # 8 threads on fewer cores, switching every microsecond, share the failure list:
        # of the batches that fail (every third from batch 6 on), batch 6's error is raised
        monkeypatch.setattr(estimator, "_BATCH", 7)
        batch = estimator._batch

        def failing(plan, t, seed, start, count):
            if start >= 42 and start % 21 == 0:
                raise RuntimeError(f"batch at {start}")
            return batch(plan, t, seed, start, count)

        monkeypatch.setattr(estimator, "_batch", failing)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with pytest.raises(RuntimeError, match="^batch at 42$"):
                    estimate_log_phi_tilde(random6, 1.0, 7 * 1000, 0, threads=8)
        finally:
            sys.setswitchinterval(interval)

    def test_ctrl_c_while_the_caller_waits_stops_the_other_shares(self, monkeypatch, random6):
        # share 0, in the caller's thread, ends in a few ms; the worker's share sleeps
        # 20 ms in each of its 100 batches. A Ctrl-C that reaches the caller while it
        # waits on the worker stops the worker at its next batch, not 2 s later
        monkeypatch.setattr(estimator, "_BATCH", 7)
        batch, main = estimator._batch, threading.main_thread()
        caller_done, worker_starts = threading.Event(), []

        def slow_worker(plan, t, seed, start, count):
            if threading.current_thread() is main:
                out = batch(plan, t, seed, start, count)
                if start == 7 * 198:  # the last batch of share 0
                    caller_done.set()
                return out
            worker_starts.append(start)
            time.sleep(0.02)
            if caller_done.is_set():
                caller_done.clear()  # one Ctrl-C
                signal.pthread_kill(main.ident, signal.SIGINT)
            return batch(plan, t, seed, start, count)

        monkeypatch.setattr(estimator, "_batch", slow_worker)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                estimate_log_phi_tilde(random6, 1.0, 7 * 200, 0, threads=2)
            elapsed = time.monotonic() - started
        finally:
            signal.signal(signal.SIGINT, handler)
        assert elapsed < 1.0, elapsed  # half the worker's 100 batches of 20 ms
        assert len(worker_starts) < 50

    @pytest.mark.parametrize("seed", range(20))
    def test_product_mean_det_is_calibrated(self, seed):
        g = four_k23()
        est = estimate_log_phi_tilde(g, 1.0, 2000, 100 + seed)
        assert abs(est.mean_det - matching_counts(g).eval(1.0)) <= 4 * est.std_err_det


# one-weight complete and complete bipartite graphs and their chains' chi degrees
CHAINS = {
    "K3": (complete_graph(3), (2, 1)),
    "K4": (complete_graph(4), (3, 2, 1)),
    "K5": (complete_graph(5, 0.7), (4, 3, 2, 1)),
    "K1_2": (complete_bipartite_graph(1, 2), (2,)),
    "K1_7": (complete_bipartite_graph(1, 7), (7,)),
    "K2_3": (complete_bipartite_graph(2, 3, 1.3), (3, 1, 2)),
    "K3_5": (complete_bipartite_graph(3, 5), (5, 2, 4, 1, 3)),
}


def chain_oracle(g: WeightedGraph, degrees, t: float, k: int, seed: int):
    """(log-determinants, largest |normal|) of k samples of the one-weight graph g on its
    chain, in scalar Python from RngStream's uniforms past the N(N - 1) pair positions."""
    n, w = g.n_vertices, g.edges[0][2]
    logs = sum(d // 2 for d in degrees)
    odd = [k for k, d in enumerate(degrees) if d % 2]
    per, values, peak = logs + 2 * ((len(odd) + 1) // 2), [], 0.0
    for i in range(k):
        u = RngStream(seed, i).uniforms(n * (n - 1) + per)[n * (n - 1) :].tolist()
        drawn = iter(u[:logs])
        c2 = [-2.0 * sum(math.log(next(drawn)) for _ in range(d // 2)) for d in degrees]
        z = []
        for r, a in zip(u[logs::2], u[logs + 1 :: 2]):
            r = math.sqrt(-2.0 * math.log(r))
            z += [r * math.cos(2.0 * math.pi * a), r * math.sin(2.0 * math.pi * a)]
        for j, at in enumerate(odd):
            c2[at] += z[j] * z[j]
            peak = max(peak, abs(z[j]))
        rho = math.sqrt(t)
        total = 0.5 * (n - len(degrees) - 1) * math.log(t) + math.log(rho)
        for c in c2:
            rho = math.sqrt(t) + w * c / rho
            total += math.log(rho)
        values.append(total)
    return np.array(values), peak


@functools.cache
def chain_and_matrix(name: str, t: float):
    """Estimates of CHAINS[name] at t from 2 x 10^5 samples, on its chain and (with the
    chain's selector patched out) on its matrix route."""
    g, k = CHAINS[name][0], 200_000
    chain = estimate_log_phi_tilde(g, t, k, 23)
    selector, estimator._chi_degrees = estimator._chi_degrees, lambda *args: None
    try:
        assert not estimator._sample_plan(g, t).chains
        matrix = estimate_log_phi_tilde(g, t, k, 23)
    finally:
        estimator._chi_degrees = selector
    return chain, matrix


class TestChain:
    """One-weight complete and complete bipartite components sample a skew-tridiagonal chain."""

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_takes_the_chain(self, name):
        g, degrees = CHAINS[name]
        plan = estimator._sample_plan(g, 1.0)
        assert plan.stacks == () and len(plan.blocks) == 0
        (chain,) = plan.chains
        assert tuple(chain.degrees) == degrees and chain.order == g.n_vertices
        assert chain.weight.tolist() == [g.edges[0][2]]
        assert chain.start == g.n_vertices * (g.n_vertices - 1) + 1

    @pytest.mark.parametrize("g", [
        complete_graph(2),
        WeightedGraph(4, tuple((u, v, 2.0 if (u, v) == (1, 3) else 1.0)
                               for u, v, _ in complete_graph(4).edges)),  # one changed weight
        delete_edge(complete_graph(4), 2),  # a missing edge
        delete_edge(complete_bipartite_graph(2, 3), 0),
        path_graph(4),
    ], ids=["K2", "K4-two-weights", "K4-less-an-edge", "K2_3-less-an-edge", "P4"])
    def test_keeps_a_matrix_route(self, g):
        plan = estimator._sample_plan(g, 1.0)
        assert plan.chains == () and len(plan.stacks) == 1

    def test_uniform_ranges_follow_the_pairs_in_plan_order(self):
        # a dense triangle, K4 and K_{1,2} on the chain (twice), vertex 13 isolated
        g = WeightedGraph(14, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0))
                          + tuple((u + 3, v + 3, 0.5) for u, v, _ in complete_graph(4).edges)
                          + ((7, 8, 1.0), (7, 9, 1.0), (10, 11, 2.0), (10, 12, 2.0)))
        plan = estimator._sample_plan(g, 1.0)
        assert [s.dense for s in plan.stacks] == [True]
        assert [tuple(ch.degrees) for ch in plan.chains] == [(3, 2, 1), (2,)]
        assert [ch.uniforms for ch in plan.chains] == [1 + 1 + 2, 1]
        assert [ch.start for ch in plan.chains] == [14 * 13 + 1, 14 * 13 + 1 + 4]
        assert plan.chains[1].weight.tolist() == [1.0, 2.0]
        assert plan.least == (0, 3, 7, 10)

    @pytest.mark.parametrize("name, t", [("K3", 1e-2), ("K4", 1.0), ("K5", 3.0),
                                         ("K1_2", 1.0), ("K2_3", 0.5), ("K3_5", 1e2)])
    def test_each_sample_is_the_oracle(self, name, t):
        g, degrees = CHAINS[name]
        est, per_sample = estimate_with_samples(g, t, 200, 4)
        want, peak = chain_oracle(g, degrees, t, 200, 4)
        assert np.allclose(per_sample, want, rtol=1e-13, atol=0)
        assert est.max_abs_variate == pytest.approx(peak, rel=1e-14, abs=0)
        assert (peak > 0) == any(d % 2 for d in degrees)

    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("name", ["K4", "K5", "K1_7", "K2_3", "K3_5"])
    def test_law_is_the_matrix_routes(self, name, t):
        chain, matrix = chain_and_matrix(name, t)
        combined = math.hypot(chain.std_err, matrix.std_err)
        assert abs(chain.mean_log - matrix.mean_log) <= 4 * combined

    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("name", ["K4", "K5", "K1_7", "K2_3", "K3_5"])
    def test_mean_det_is_unbiased(self, name, t):
        g = CHAINS[name][0]
        chain, _ = chain_and_matrix(name, t)
        bip = g.components[0][1]
        w = g.edges[0][2]
        counts = (complete_graph_counts(g.n_vertices, w) if bip is None
                  else complete_bipartite_counts(bip.m, bip.n, w))
        target = counts.eval(t) * (math.sqrt(t) if g.n_vertices % 2 else 1.0)
        assert abs(chain.mean_det - target) <= 4 * chain.std_err_det

    @pytest.mark.parametrize("knob, size", [(None, 0), ("_BATCH_BYTES", 1),
                                            ("_BATCH_BYTES", 3000), ("_CHUNK", 3)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bytes_do_not_depend_on_threads_or_batches(self, monkeypatch, knob, size, threads):
        # two chains (K4, and K_{2,3} twice), a dense triangle, a Gram K2 and vertex 19 alone
        k23 = complete_bipartite_graph(2, 3).edges
        g = WeightedGraph(20, tuple(complete_graph(4, 0.8).edges)
                          + tuple((u + 4, v + 4, 1.0) for u, v, _ in k23)
                          + tuple((u + 9, v + 9, 2.5) for u, v, _ in k23)
                          + ((14, 15, 1.0), (15, 16, 2.0), (14, 16, 0.5), (17, 18, 1.2)))
        assert len(estimator._sample_plan(g, 1.0).chains) == 2
        want, want_samples = estimate_with_samples(g, 0.7, 500, 6, threads=1)
        if knob:
            monkeypatch.setattr(estimator, knob, size)
        got, got_samples = estimate_with_samples(g, 0.7, 500, 6, threads=threads)
        assert np.array_equal(got_samples, want_samples)
        assert astuple(got) == astuple(want)

    @pytest.mark.parametrize("w", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("t", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("name", ["K3", "K4", "K2_3"])
    def test_extremes_exit_or_fall_back(self, name, t, w):
        # the chain only where sqrt(t) + n_C 75 w / sqrt(t) is finite; there every
        # log-determinant is finite, and elsewhere the component keeps its matrix route
        g = WeightedGraph(CHAINS[name][0].n_vertices,
                          tuple((u, v, w) for u, v, _ in CHAINS[name][0].edges))
        plan = estimator._sample_plan(g, t)
        if math.sqrt(t) + g.n_vertices * 75.0 * w / math.sqrt(t) == math.inf:
            assert plan.chains == () and len(plan.stacks) == 1
            return
        assert plan.stacks == () and len(plan.chains) == 1
        est = estimate_log_phi_tilde(g, t, 300, 5)
        bounds = bounds_report(est, g.n_vertices, t, c1_constant(), parts=weight_sums(g).parts)
        assert math.isfinite(est.mean_log) and math.isfinite(bounds.lower_log)


def decimal_det_moments(per_sample) -> tuple[float, float]:
    """(log mean, log std err) of exp(per_sample) in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dets = [decimal.Decimal(v).exp() for v in per_sample.tolist()]
        k = len(dets)
        mean = sum(dets) / k
        var = sum((d - mean) ** 2 for d in dets) / (k - 1)
        return float(mean.ln()), float((var / k).sqrt().ln())


class TestDeterminantMoments:
    @pytest.mark.parametrize(
        "graph, t",
        [
            (path_graph(6), 1e-2),
            (WeightedGraph(6, RANDOM6_EDGES), 0.3),
            (complete_graph(4), 1e-250),
            (complete_bipartite_graph(8, 8, 1e100), 1e-100),
        ],
        ids=["p6", "random6", "k4", "k88"],
    )
    def test_single_component_against_decimal(self, graph, t):
        est, per_sample = estimate_with_samples(graph, t, 2000, 17)
        log_mean, log_se = decimal_det_moments(per_sample)
        assert abs(est.log_mean_det - log_mean) <= 1e-15 * (1 + abs(log_mean))
        assert abs(est.log_std_err_det - log_se) <= 1e-15 * (1 + abs(log_se))

    def test_equal_samples_have_no_spread(self, k2_unit):
        # t + x^2 rounds to t at t = 1e300: every determinant is the same double
        est, per_sample = estimate_with_samples(k2_unit, 1e300, 5000, 3)
        assert np.all(per_sample == per_sample[0])
        assert est.log_std_err_det == -math.inf
        assert est.log_mean_det == est.mean_log
        assert est.std_err == 0.0
        assert est.mean_log == per_sample[0]

    def test_one_sample_has_no_spread(self, random6):
        est, per_sample = estimate_with_samples(random6, 1.0, 1, 3)
        assert est.std_err == 0.0
        assert est.mean_log == per_sample[0]
        assert est.log_std_err_det == -math.inf

    @pytest.mark.parametrize("case", ["determinants", "doubles"])
    def test_moments_are_exact(self, case):
        if case == "determinants":
            # each e^v is f 2^n with f rounded once; both sums are exact in those f, at any scale
            v = np.concatenate([np.random.default_rng(8).normal(0, 5, 500), [-2e4, 0.0, 3e4]])
            e = np.floor(v / estimator._LN2).astype(np.int64)
            x = np.exp(v - e * estimator._LN2)
        else:
            # squares of 5e-324 and 1e300 leave the double range; the sums stay exact
            x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.5, -2.75])
            e = np.zeros(len(x), dtype=np.int64)
        terms = [Fraction(v) * Fraction(2) ** int(p) for v, p in zip(x.tolist(), e.tolist())]
        s1, s2 = exact_moments(x[None], e[None])
        assert s1 == [sum(terms)]
        assert s2 == [sum(v * v for v in terms)]

    def test_exponent_per_term(self):
        rng = np.random.default_rng(6)
        x, e = rng.normal(0, 1, 3000), rng.integers(-5000, 5000, 3000)
        want = sum(Fraction(v) * Fraction(2) ** int(p) for v, p in zip(x.tolist(), e))
        assert exact_moments(x[None], e[None])[0] == [want]


def common_denominator_log_std_err_det(g: WeightedGraph, t: float, k: int, seed: int) -> float:
    """log_std_err_det of k samples, with rel^2 = sum_C d_C / S1_C^2 added over one common
    denominator: the reduction the estimator used before its log-sum-exp, kept as its
    oracle. It is quadratic in the component count."""
    plan = estimator._sample_plan(g, t)
    _, ((s1, p1), (s2, p2)), _ = estimator._batch(plan, t, seed, 0, k)
    q, k1 = min(p2, 2 * p1), max(k - 1, 1)
    d = (k * s2 << p2 - q) - (s1 * s1 << 2 * p1 - q)
    log_mean_det = math.fsum(estimator._log(a, k, p1) for a in s1[1:]) + plan.shift
    num, den = 0, 1
    for dc, ac in zip(d[1:], s1[1:]):
        num, den = num * ac * ac + dc * den, den * ac * ac
    return log_mean_det + 0.5 * estimator._log(num, den * k1, q - 2 * p1) if num else -math.inf


class TestManyComponents:
    """rel^2 is a log-sum-exp of one exact term per component: linear in their count."""

    @pytest.mark.parametrize("components, t, k", [
        (1, 100.0, 300), (2, 100.0, 300), (17, 1.0, 300), (1001, 100.0, 300), (1001, 100.0, 2),
    ])
    def test_equals_the_common_denominator_sum(self, components, t, k):
        if components == 17:  # 16 K_{2,6} on the chain, a dense triangle, an isolated vertex
            edges = sparse_graph().edges + ((128, 129, 0.7), (129, 130, 1.3), (128, 130, 2.0))
            g = WeightedGraph(132, edges)
        else:
            g = disjoint_k2(components)
        assert len(g.components) == components
        got = estimate_log_phi_tilde(g, t, k, 11).log_std_err_det
        want = common_denominator_log_std_err_det(g, t, k, 11)
        if components == 1:  # one term: the same exact ratio, so the same bits
            assert got == want
        assert got == want or math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)

    def test_twenty_thousand_components_in_linear_time(self):
        # 0.28 to 0.47 s on a 2-core x86-64 box; the common-denominator sum took about
        # 29 s there, as it is quadratic in the component count
        g = disjoint_k2(20_000)
        started = time.perf_counter()
        est = estimate_log_phi_tilde(g, 100.0, 2, 1, threads=1)
        assert time.perf_counter() - started < 2.0
        assert math.isfinite(est.log_std_err_det)

    def test_no_spread_in_any_component(self):
        # t + w z^2 rounds to t at t = 1e300 in every component: no term, no spread
        est = estimate_log_phi_tilde(disjoint_k2(5), 1e300, 50, 3)
        assert est.log_std_err_det == -math.inf


def exact_moments(x: np.ndarray, e: np.ndarray) -> tuple[list[Fraction], list[Fraction]]:
    """estimator._exact_moments of each row of x 2^e, as Fractions."""
    (s1, p1), (s2, p2) = estimator._exact_moments(x, e)
    return tuple([Fraction(v) * Fraction(2) ** p for v in s] for s, p in ((s1, p1), (s2, p2)))


def exact_total(x) -> Fraction:
    """The exact sum of the doubles x, through estimator._exact_moments."""
    x = np.asarray(x, dtype=np.float64)[None]
    return exact_moments(x, np.zeros(x.shape, dtype=np.int64))[0][0]


def oracle_total(x: np.ndarray, e=0) -> Fraction:
    """sum(x 2^e) exactly, for finite doubles x and integers e: the exact sum the estimator
    used before its one-pass sums, kept as their oracle. np.frexp gives x = m 2^p, and
    m 2^27 = h + l 2^-26 with integers |h| < 2^27, |l| < 2^26, summed per binade of p + e."""
    mant, exp = np.frexp(x)
    exp = exp + e
    base = int(exp.min()) if exp.size else 0
    exp -= base
    low, high = np.modf(mant * 2.0**27)
    width = (int(exp.max(initial=0)) + 42) // 16 * 16
    sums = np.bincount(exp, low, width) * 2.0**26
    sums[26:] += np.bincount(exp, high, width)[:-26]
    blocks = (sums.astype(np.int64).reshape(-1, 16) @ (1 << np.arange(16))).tolist()
    total, shift = sum(v << 16 * i for i, v in enumerate(blocks)), base - 53
    return Fraction(total << max(shift, 0), 1 << max(-shift, 0))


def oracle_moments(x: np.ndarray, e=0) -> tuple[Fraction, Fraction]:
    """(sum x 2^e, sum x^2 2^2e) exactly: np.frexp gives x = m 2^p, and m^2 = g + err
    exactly (Dekker's product on Veltkamp's 26-bit halves of m)."""
    m, p = np.frexp(x)
    p = 2 * (p + e)
    hi = m * (2.0**27 + 1)
    hi -= hi - m
    lo = m - hi
    g = m * m
    err = lo * lo - ((g - hi * hi) - 2.0 * hi * lo)
    return oracle_total(x, e), oracle_total(np.concatenate([g, err]), np.concatenate([p, p]))


def moment_rows(rng: np.random.Generator, sums: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """sums x terms doubles of every kind the sums meet, with integer exponent offsets:
    determinant factors f 2^n (f in [1, 2), some a few ulps outside), log-determinants of
    both signs, subnormals, values near 1e+-300 and zeros."""
    shape = (sums, terms)
    sign = rng.choice([-1.0, 1.0], shape)
    edge = np.where(rng.random(shape) < 0.5, 1.0, 2.0)
    kinds = [
        np.exp(rng.uniform(0.0, math.log(2.0), shape)),
        edge + edge * rng.integers(-3, 4, shape) * 2.0**-52,
        rng.normal(0, 50, shape),
        sign * rng.integers(0, 2**52, shape) * 5e-324,
        sign * 10.0 ** rng.uniform(-300, 300, shape),
        rng.choice([0.0, -0.0, 1.0], shape),
    ]
    x = np.choose(rng.integers(0, len(kinds), shape), kinds)
    return x, rng.integers(-3000, 3000, shape) * (rng.random((sums, 1)) < 0.7)


class TestExactMoments:
    """The one-pass sums (estimator._exact_moments) equal the former per-column sums."""

    @pytest.mark.parametrize("sums, terms", [
        (0, 5), (1, 0), (1, 1), (2, 1), (2, 7), (17, 1), (17, 499), (17, 615), (1001, 1),
        (1001, 3), (2, estimator._TERMS + 1), (1, 2 * estimator._BATCH),
    ])
    def test_equals_the_oracle(self, sums, terms):
        # one row of x per column of a batch: the log-determinants, then each component's
        x, e = moment_rows(np.random.default_rng(sums * 100_003 + terms), sums, terms)
        s1, s2 = exact_moments(x, e)
        assert len(s1) == len(s2) == sums
        for r in range(sums):
            assert (s1[r], s2[r]) == oracle_moments(x[r], e[r]), r

    def test_any_split_of_the_pass(self, monkeypatch):
        # the term budget moves where chunks end, never a sum
        x, e = moment_rows(np.random.default_rng(35), 17, 499)
        want = exact_moments(x, e)
        for terms in (1, 7, 499, 500, 17 * 499):
            monkeypatch.setattr(estimator, "_TERMS", terms)
            assert exact_moments(x, e) == want, terms

    def test_batch_moments_are_the_oracle(self):
        # a batch's moments: the log-determinants, then each component's e^v = f 2^n
        plan = estimator._sample_plan(sixteen_k26(), 1.0)
        total, ((s1, p1), (s2, p2)), _ = estimator._batch(plan, 1.0, 3, 0, 499)
        z = estimator._normal_block(3, 0, 499, plan.blocks)
        (stack,) = plan.stacks
        v = estimator.gram_logdet_batch(estimator._matrices(stack, z), 1.0).reshape(16, 499)
        n = np.floor(v / estimator._LN2).astype(np.int64)
        rows = [(total, 0)] + list(zip(np.exp(v - n * estimator._LN2), n))
        for r, (x, e) in enumerate(rows):
            got = Fraction(s1[r]) * Fraction(2) ** p1, Fraction(s2[r]) * Fraction(2) ** p2
            assert got == oracle_moments(x, e)


def exact_scaled_sum(x) -> int:
    """sum(x) * 2^1126 from each double's exact integer ratio."""
    total = 0
    for v in x:
        num, den = float(v).as_integer_ratio()
        total += num * ((1 << 1126) // den)
    return total


_rng = np.random.default_rng(2013)
EXACT_SUM_CASES = {
    "cancellation": [1e16, 1.0, -1e16],
    "tenth-times-ten": [0.1] * 10,
    "subnormals": [5e-324, 5e-324, -1e-310, 2.2250738585072014e-308, -2.5e-320],
    "least-subnormal": [5e-324],
    "mixed-signs-1e-300-to-1e300": _rng.choice([-1.0, 1.0], 4000) * 10.0 ** _rng.uniform(
        -300, 300, 4000),
    "extremes": [1.7976931348623157e308, -1.7976931348623157e308, 1.0, -5e-324],
    "signed-zeros": [0.0, -0.0, -0.0],
    "negative-zero": [-0.0],
    "empty": [],
    "one": [-2.75],
    "chunk-minus-one": _rng.normal(0, 1, 2**16 - 1),
    "chunk-plus-one": _rng.normal(0, 1, 2**16 + 1),
    # every mantissa at its largest: the widest partial sums a binade can make
    "full-mantissas": np.repeat([1 - 2.0**-53, -(1 - 2.0**-53)], [2**16 + 1, 5]),
}


class TestExactTotal:
    @pytest.mark.parametrize("split", [None, 3])
    @pytest.mark.parametrize("case", sorted(EXACT_SUM_CASES))
    def test_exact_and_fsum_bitwise(self, case, split):
        # split: the total of split-term slices, as the estimator adds its batches
        x = np.asarray(EXACT_SUM_CASES[case], dtype=np.float64)
        slices = [x] if split is None else [x[lo : lo + split] for lo in range(0, len(x), split)]
        total = sum((exact_total(part) for part in slices), Fraction(0))
        assert total * 2**1126 == exact_scaled_sum(x)
        assert float(total).hex() == math.fsum(x.tolist()).hex()

    def test_largest_sum_is_exact_at_every_alignment(self):
        # 2^20 largest mantissas, each adding 2^15 (2^27 - 1) to one int64 block, beside
        # one anchor term that sets the base binade: at 2^21 terms a block would wrap
        top = 1 - 2.0**-53
        for shift in range(16):
            x = np.append(np.full(2**20, top * 2.0**shift), top)
            assert exact_total(x) == Fraction(top) * (2**20 * 2**shift + 1), shift
        # a chunk of _TERMS terms keeps each bin below 2^51 (each value below 2^37)
        assert estimator._TERMS <= 2**14

    def test_million_normals_mean_three(self):
        x = np.random.default_rng(3).normal(3.0, 1.0, 10**6)
        total = exact_total(x)
        assert float(total).hex() == math.fsum(x.tolist()).hex()

    def test_order_and_split_do_not_matter(self):
        x = np.random.default_rng(4).normal(0, 1e6, 5000) ** 3
        whole = exact_total(x)
        assert exact_total(x[::-1]) == whole
        assert exact_total(x[:1234]) + exact_total(x[1234:]) == whole

    def test_overflowing_sum_raises_like_fsum(self):
        x = [1.5e308, 1.5e308]
        with pytest.raises(OverflowError):
            math.fsum(x)
        ((s1, p1), _) = estimator._exact_moments(np.array([x]), np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(OverflowError):
            estimator._quotient(s1[0], 1, p1)


def mixed_graph(seed: int) -> WeightedGraph:
    """2-3 random connected components of 2-5 vertices, weights log-uniform in
    [0.1, 4], and 1 or 2 isolated vertices so that N is odd, labels shuffled."""
    rng = np.random.default_rng(seed)
    edges, n = [], 0
    for _ in range(int(rng.integers(2, 4))):
        size = int(rng.integers(2, 6))
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        for u, v in pairs:  # a spanning path keeps the component connected
            if v == u + 1 or rng.random() < 0.4:
                edges.append((n + u, n + v, float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))))
        n += size
    n += 1 + n % 2
    label = rng.permutation(n)
    return WeightedGraph(n, tuple((int(label[u]), int(label[v]), w) for u, v, w in edges))


def worst_case_parts(g: WeightedGraph) -> tuple[tuple[float, int], ...]:
    """Every vertex its own part of the largest weight a^2: the worst-case bracket."""
    return ((g.max_weight, 1),) * g.n_vertices


def worst_case_gap(g: WeightedGraph, t: float, c1: float) -> float:
    a = math.sqrt(g.max_weight)
    return g.n_vertices * min(a**2 / t / 4.0, c1)


def two_tails(epsilon: float, delta: float) -> float:
    """x = ln(2/delta) + ln(1 + (delta/2)^(rho - 1)), rho = (ln(1 - eps) / ln(1 + eps))^2:
    the plan's exponent, which holds e^-x + e^(-rho x) to delta/2."""
    rho = (math.log1p(-epsilon) / math.log1p(epsilon)) ** 2 if epsilon < 1 else math.inf
    return math.log(2.0 / delta) + math.log1p((delta / 2.0) ** (rho - 1.0))


def one_sided_tails(plan, n: int, t: float, w: float) -> float:
    """e^(-a s^2) + e^(-a s'^2), a = t k / W, at the plan's upper radius s = N r = ln(1 + eps)
    and its lower radius s' = -ln(1 - eps): each tail_bound side at its own radius."""
    lower = -math.log1p(-plan.epsilon) / n if plan.epsilon < 1 else math.inf
    return sum(tail_bound(r, n, plan.samples, t, heaviest_weight_sum=w) / 2.0
               for r in (plan.deviation_radius, lower))


class TestPlanner:
    def test_worked_example(self):
        # k = ceil(W x / (t ln(1 + eps)^2)), with x = ln(2/delta) = 2 - ln 2 at eps = 1, where
        # no mean fails below: ceil(10 (2 - ln 2) / ln(2)^2) = 28 (42 at ln(4/delta) = 2)
        plan = plan_samples(1.0, 4.0 / math.exp(2.0), 10, 1.0, heaviest_weight_sum=10.0)
        assert plan.samples == 28
        assert plan.deviation_radius == pytest.approx(math.log(2.0) / 10)

    def test_cli_example(self):
        # x = ln 8 + ln(1 + (1/8)^(rho - 1)), rho = (ln 2 / ln 1.5)^2: 26 (34 at ln 16)
        plan = plan_samples(0.5, 0.25, 2, 1.0, heaviest_weight_sum=2.0)
        assert plan.samples == 26

    def test_amplitude_scaling(self):
        base = plan_samples(0.5, 0.25, 6, 1.0, heaviest_weight_sum=6.0)
        doubled = plan_samples(0.5, 0.25, 6, 1.0, heaviest_weight_sum=2.0**2 * 6)
        assert doubled.samples == pytest.approx(4 * base.samples, abs=4)

    def test_epsilon_scaling(self):
        base = plan_samples(0.5, 0.25, 6, 1.0, heaviest_weight_sum=6.0)
        halved = plan_samples(0.25, 0.25, 6, 1.0, heaviest_weight_sum=6.0)
        # k scales as x / ln(1 + eps)^2, and x grows toward ln(4/delta) as eps falls
        ratio = (math.log1p(0.5) / math.log1p(0.25)) ** 2
        ratio *= two_tails(0.25, 0.25) / two_tails(0.5, 0.25)
        assert halved.samples == pytest.approx(ratio * base.samples, abs=4)

    @pytest.mark.parametrize("epsilon, t", [(1e-160, 1.0), (1e-170, 1.0), (0.5, 5e-324)])
    def test_unbounded_count_is_value_error(self, epsilon, t):
        # the count overflows, or t eps^2 underflows to zero
        with pytest.raises(ValueError, match="not finite"):
            plan_samples(epsilon, 0.1, 2, t, heaviest_weight_sum=2.0)

    def test_out_of_range(self):
        for args in [(0.0, 0.25, 4, 1.0), (1.5, 0.25, 4, 1.0), (0.5, 1.0, 4, 1.0),
                     (0.5, 0.25, 0, 1.0), (0.5, 0.25, 4, 0.0)]:
            with pytest.raises(ValueError):
                plan_samples(*args, heaviest_weight_sum=4.0)

    def test_count_past_the_indices_is_value_error(self):
        # k = W ln(2/delta) / (t ln(1 + eps)^2) at eps 1, delta 1/2: 2**64 is the largest
        heaviest = 2.0**64 * math.log(2.0) ** 2 / math.log(4.0)
        assert plan_samples(1.0, 0.5, 2, 1.0, heaviest_weight_sum=0.99 * heaviest).samples < 2**64
        with pytest.raises(ValueError, match=r"it must be at most 2\*\*64, one per uint64 index"):
            plan_samples(1.0, 0.5, 2, 1.0, heaviest_weight_sum=1.01 * heaviest)

    def test_old_positional_call_is_type_error(self):
        # the amplitude argument is gone: a fifth positional value is never read as W
        with pytest.raises(TypeError):
            plan_samples(0.5, 0.25, 4, 1.0, 1.0)
        with pytest.raises(TypeError):
            tail_bound(0.1, 4, 4, 1.0, 1.0)
        with pytest.raises(TypeError):
            bounds_report(estimate_log_phi_tilde(complete_graph(2), 1.0, 1, 0), 1.0, 2, 1.0, 1.0)

    @pytest.mark.parametrize("epsilon, delta, n, a, t", [
        (1.0, 4.0 / math.exp(2.0), 10, 1.0, 1.0), (0.5, 0.25, 2, 1.0, 1.0),
        (0.5, 0.1, 128, 1.5, 1.0), (0.02, 0.1, 6, math.sqrt(2.2), 1.0),
        (0.3, 0.01, 7, 1e-3, 1e-5), (0.9, 0.5, 3, 1e10, 1e12),
    ])
    def test_worst_case_is_the_default(self, epsilon, delta, n, a, t):
        # the worst case, passed in as W = a^2 N, keeps its count: criterion 07's 28 among them
        worst = plan_samples(epsilon, delta, n, t, heaviest_weight_sum=a**2 * n)
        k = a**2 * n * two_tails(epsilon, delta) / (t * math.log1p(epsilon) ** 2)
        assert worst.samples == max(1, math.ceil(k))

    @pytest.mark.parametrize("seed", range(8))
    def test_heaviest_weight_sum_never_plans_more(self, seed):
        g = mixed_graph(seed)
        sums = weight_sums(g)
        for epsilon, delta, t in [(0.5, 0.25, 1.0), (0.1, 0.01, 0.3), (1.0, 0.9, 7.0)]:
            args = (epsilon, delta, g.n_vertices, t)
            cover = plan_samples(*args, heaviest_weight_sum=sums.cover_sum)
            plan = plan_samples(*args, heaviest_weight_sum=sums.heaviest)
            bound = plan_samples(*args, heaviest_weight_sum=g.max_weight * g.n_vertices)
            assert cover.samples <= plan.samples <= bound.samples
            assert cover.deviation_radius == plan.deviation_radius == bound.deviation_radius

    def test_sparse_workload_plan(self):
        # 16 disjoint K_{2,6}: a cover of 2 nu = 80 (each copy's 2-vertex side), against
        # W = 160 and a^2 N = 256
        g = sparse_graph()
        sums = weight_sums(g)
        assert (sums.cover_sum, sums.heaviest) == (80.0, 160.0)
        worst = g.max_weight * g.n_vertices
        # at eps = 1 only the upper tail can fail: x = ln(2/delta), where ln(4/delta) gave
        # 1966, 1229 and 615
        assert plan_samples(1.0, 0.1, 128, 1.0, heaviest_weight_sum=worst).samples == 1597
        assert plan_samples(1.0, 0.1, 128, 1.0, heaviest_weight_sum=sums.heaviest).samples == 998
        assert plan_samples(1.0, 0.1, 128, 1.0, heaviest_weight_sum=sums.cover_sum).samples == 499

    def test_cover_plan_covers_a_mixed_bipartite_graph(self):
        # criterion 07 at the cover's plan: a star K_{1,3} of weights 0.5, 1, 2, a 4-cycle
        # of unequal weights and an isolated vertex (N = 9), where 2 nu = 4 + 5 against
        # W = 10.5. Consecutive runs of k samples are independent means of k.
        g = WeightedGraph(9, (
            (0, 1, 0.5), (0, 2, 1.0), (0, 3, 2.0),
            (4, 5, 1.5), (5, 6, 0.5), (6, 7, 1.0), (7, 4, 0.25),
        ))
        sums = weight_sums(g)
        assert (sums.cover_sum, sums.heaviest) == (9.0, 10.5)
        reference = estimate_log_phi_tilde(g, 1.0, 200_000, 708).mean_log
        for epsilon, samples, seed in [(0.5, 115, 707), (1.0, 39, 709)]:
            plan = plan_samples(epsilon, 0.25, 9, 1.0, heaviest_weight_sum=sums.cover_sum)
            assert plan.samples == samples  # 152 and 52 with both tails at ln(1 + eps)
            runs = 400
            per_sample = estimate_with_samples(g, 1.0, runs * plan.samples, seed)[1]
            means = per_sample.reshape(runs, plan.samples).mean(axis=1)
            ratio = np.exp(means - reference)
            coverage = float(((1.0 - plan.epsilon < ratio) & (ratio < 1.0 + plan.epsilon)).mean())
            assert coverage >= 1.0 - plan.delta
            # the plan's own promise: a mean ln(1 + eps) above its expectation or
            # -ln(1 - eps) below it, in delta / 2 together
            lower = -math.log1p(-epsilon) if epsilon < 1 else math.inf
            far = float((means - reference >= 9 * plan.deviation_radius).mean()
                        + (reference - means >= lower).mean())
            assert far <= plan.delta / 2.0

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 128, 1000])
    def test_radius_keeps_the_promise(self, n):
        # a mean log less than N r = ln(1 + eps) above its target and less than
        # -ln(1 - eps) below it is a ratio in (1 - eps, 1 + eps); the plan's k holds the
        # two one-sided tails, e^(-a s^2) + e^(-a s'^2) with a = t k / W, to delta/2.
        # exp, log1p and N r each round: exp(N r) may pass 1 + eps by 2 ulps, so 4 are
        # allowed.
        for epsilon in np.linspace(0.01, 1.0, 100).tolist():
            for delta, t, w in [(0.1, 1.0, n), (0.25, 0.3, 2.5 * n), (0.9, 7.0, 0.5)]:
                plan = plan_samples(epsilon, delta, n, t, heaviest_weight_sum=w)
                r, a = plan.deviation_radius, t * plan.samples / w
                assert math.exp(n * r) <= 1.0 + epsilon + 4 * math.ulp(1.0 + epsilon)
                assert math.exp(-n * r) >= 1.0 - epsilon
                assert n * r > epsilon / 2.0
                lower = -math.log1p(-epsilon) if epsilon < 1 else math.inf
                assert math.exp(-a * (n * r) ** 2) + math.exp(-a * lower**2) <= delta / 2.0

    @pytest.mark.parametrize("delta, n, t, w", [
        (0.1, 128, 1.0, 80.0), (0.25, 4, 1.0, 4.0), (0.01, 7, 0.3, 17.5), (0.9, 2, 1.0, 50.0),
    ])
    def test_never_more_than_two_sided(self, delta, n, t, w):
        # both tails at ln(1 + eps), ceil(W ln(4/delta) / (t ln(1 + eps)^2)), is the plan's
        # ceiling, and ln(2/delta) its floor at eps = 1; the lower radius -ln(1 - eps)
        # nears ln(1 + eps) as eps -> 0, and so does the plan near the ceiling
        for epsilon in [1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            plan = plan_samples(epsilon, delta, n, t, heaviest_weight_sum=w).samples
            ceiling = math.ceil(w * math.log(4.0 / delta) / (t * math.log1p(epsilon) ** 2))
            assert plan <= ceiling
            if epsilon == 1.0:
                assert plan == math.ceil(w * math.log(2.0 / delta) / (t * math.log(2.0) ** 2))
            if epsilon <= 1e-4:
                assert plan >= (1.0 - 10 * epsilon) * ceiling

    def test_edgeless_graph_plans_one_sample(self):
        plan = plan_samples(0.5, 0.25, 4, 1.0, heaviest_weight_sum=0.0)
        assert plan.samples == 1
        assert plan.deviation_radius == math.log1p(0.5) / 4

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_bad_heaviest_weight_sum(self, bad):
        with pytest.raises(ValueError, match="heaviest_weight_sum"):
            plan_samples(0.5, 0.25, 4, 1.0, heaviest_weight_sum=bad)

    def test_infinite_heaviest_weight_sum_is_not_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            plan_samples(0.5, 0.25, 4, 1.0, heaviest_weight_sum=math.inf)


class TestTailBound:
    def test_direct_substitution(self):
        bound = tail_bound(1.0, 1, 1, 2.0, heaviest_weight_sum=1.0)
        assert bound == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)

    def test_vacuous_at_zero_radius(self):
        assert tail_bound(0.0, 4, 10, 1.0, heaviest_weight_sum=4.0) == 2.0

    def test_planner_consistency(self):
        # each side of the symmetric bound at its own radius: together within delta/2
        for eps, delta in [(0.5, 0.25), (0.2, 0.1), (1.0, 0.9)]:
            plan = plan_samples(eps, delta, 6, 0.7, heaviest_weight_sum=1.3**2 * 6)
            bound = one_sided_tails(plan, 6, 0.7, 1.3**2 * 6)
            assert bound <= delta / 2.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_bound(-0.1, 1, 1, 1.0, heaviest_weight_sum=1.0)
        with pytest.raises(ValueError):
            tail_bound(0.1, 1, 1, 0.0, heaviest_weight_sum=1.0)

    @pytest.mark.parametrize("r, n, k, a, t", [
        (1.0, 1, 1, 1.0, 2.0), (0.05, 4, 4, 1.0, 1.0), (0.1, 4, 4, 1.0, 1.0),
        (0.2, 4, 4, 1.0, 1.0), (0.4, 4, 4, 1.0, 1.0), (0.3, 7, 100, 1.3, 0.7),
        (1e-3, 128, 7555, 1.4142135623730951, 1.0),
    ])
    def test_worst_case_bits(self, r, n, k, a, t):
        want = 2.0 * math.exp(-t * k * n**2 * r**2 / (a**2 * n))
        assert tail_bound(r, n, k, t, heaviest_weight_sum=a**2 * n) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_planner_consistency_with_heaviest_weight_sum(self, seed):
        g = mixed_graph(seed)
        sums = weight_sums(g)
        n, worst = g.n_vertices, g.max_weight * g.n_vertices
        for eps, delta, t in [(0.5, 0.25, 1.0), (0.2, 0.1, 0.4), (1.0, 0.9, 3.0)]:
            for w in (sums.cover_sum, sums.heaviest):
                plan = plan_samples(eps, delta, n, t, heaviest_weight_sum=w)
                r, k = plan.deviation_radius, plan.samples
                assert one_sided_tails(plan, n, t, w) <= delta / 2.0 + 1e-12
                bound = tail_bound(r, n, k, t, heaviest_weight_sum=w)
                assert bound <= tail_bound(r, n, k, t, heaviest_weight_sum=worst)

    def test_heaviest_weight_sum_validation(self):
        with pytest.raises(ValueError, match="heaviest_weight_sum"):
            tail_bound(0.1, 2, 1, 1.0, heaviest_weight_sum=0.0)

    def test_tail_frequencies_on_unequal_weights(self):
        # criterion 06's check against the sharper bound: P3 of weights 0.5, 2, a K2 of
        # weight 3 with a pendant edge of weight 0.25, and an isolated vertex (N = 7, odd):
        # a cover of 2 nu = 10 (W = 10.75) against a^2 N = 21. Consecutive runs of k
        # samples are independent means of k, since every sample is a function of
        # (seed, index) alone.
        g = WeightedGraph(7, ((0, 1, 0.5), (1, 2, 2.0), (3, 4, 3.0), (4, 5, 0.25)))
        cover = weight_sums(g).cover_sum
        assert cover == 10.0
        runs, k, t = 2000, 4, 3.0
        means = estimate_with_samples(g, t, runs * k, 616)[1].reshape(runs, k).mean(1)
        reference = estimate_log_phi_tilde(g, t, 200_000, 617).mean_log
        deviations = np.abs(means - reference)
        for r in (0.1, 0.2, 0.3, 0.4):
            freq = float((deviations >= 7 * r).mean())
            bound = tail_bound(r, 7, k, t, heaviest_weight_sum=cover)
            assert bound < tail_bound(r, 7, k, t, heaviest_weight_sum=10.75)
            assert freq <= bound + 0.02, f"tail frequency {freq} exceeds {bound} at r={r}"


def skew_and_k(w: np.ndarray, z: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Y(z) and K = 2Y (tI + Y^T Y)^-1, for the symmetric weights w (0 off the edges) and
    the normals z of the upper triangle: the gradient of f(z) = log det(sqrt(t) I + Y(z))
    is df/dz_ij = sqrt(w_ij) K_ij."""
    upper = np.triu(np.sqrt(w) * z, 1)
    y = upper - upper.T
    return y, 2.0 * y @ np.linalg.inv(t * np.eye(len(w)) + y.T @ y)


def lipschitz_sq(w: np.ndarray, z: np.ndarray, t: float) -> float:
    """|grad f|^2 = sum_{i<j} w_ij K_ij^2: one entry per unordered pair."""
    i, j = np.triu_indices(len(w), 1)
    return float((w[i, j] * skew_and_k(w, z, t)[1][i, j] ** 2).sum())


class TestLipschitzConstant:
    """The squared Lipschitz constants nu/t <= W/2t behind plan_samples, tail_bound and
    log_gap_bound: nu is a fractional vertex cover's weight (graphs.weight_sums)."""

    @staticmethod
    def _case(rng: np.random.Generator):
        n = int(rng.integers(2, 9))
        w = np.triu(np.exp(rng.uniform(np.log(0.1), np.log(10.0), (n, n))), 1)
        w *= np.triu(rng.random((n, n)) < rng.uniform(0.3, 1.0), 1)
        w += w.T
        g = WeightedGraph(n, tuple((i, j, float(w[i, j])) for i, j in zip(*np.nonzero(np.triu(w)))))
        t = float(10.0 ** rng.uniform(-3.0, 3.0))
        # scaled draws reach |y| near sqrt(t), where an entry of K peaks, at every t
        z = rng.standard_normal((n, n)) * math.sqrt(t) * 10.0 ** rng.uniform(-1.0, 1.0)
        return w, g, t, z

    def test_gradient_is_k(self):
        # df/dz_ij = sqrt(w_ij) K_ij, against central differences of slogdet
        rng = np.random.default_rng(2701)
        for _ in range(20):
            w, _, t, z = self._case(rng)
            (n, h), (y, k) = (len(w), 1e-6), skew_and_k(w, z, t)
            m = math.sqrt(t) * np.eye(n) + y
            for i, j in zip(*np.nonzero(np.triu(w))):
                a, step = math.sqrt(w[i, j]), np.zeros((n, n))
                step[i, j], step[j, i] = a * h, -a * h
                up, down = (np.linalg.slogdet(m + s * step)[1] for s in (1, -1))
                want = a * k[i, j]
                assert (up - down) / (2.0 * h) == pytest.approx(want, rel=1e-5, abs=1e-7 / math.sqrt(t))

    def test_unordered_pairs_bound(self):
        # sum_{i<j} w_ij K_ij^2 <= nu/t <= W/2t on random graphs, weights, draws and t in
        # 1e-3..1e3, with 2 nu the cover weight sum and W the heaviest weight sum
        rng = np.random.default_rng(2702)
        worst = worst_cover = 0.0
        for _ in range(1500):
            w, g, t, z = self._case(rng)
            sums = weight_sums(g)
            if sums.heaviest == 0:
                continue
            ratio = lipschitz_sq(w, z, t) / (sums.heaviest / (2.0 * t))
            cover_ratio = lipschitz_sq(w, z, t) / (sums.cover_sum / (2.0 * t))
            assert ratio <= cover_ratio <= 1.0 + 1e-12
            worst, worst_cover = max(worst, ratio), max(worst_cover, cover_ratio)
        assert worst > 0.5  # the draws come near the bound, so the check has teeth
        assert worst_cover > 0.5

    @pytest.mark.parametrize("weight, t", [(1.0, 1.0), (0.3, 1e-2), (7.0, 50.0), (2.0, 1e3)])
    def test_k2_attains_the_bound(self, weight, t):
        # at y = sqrt(t), K_12 = 1/sqrt(t): w K_12^2 = w/t = W/2t with W = 2w, so no
        # further factor is available from this argument
        w = np.array([[0.0, weight], [weight, 0.0]])
        z = np.array([[0.0, math.sqrt(t / weight)], [0.0, 0.0]])
        sums = weight_sums(WeightedGraph(2, ((0, 1, weight),)))
        assert sums.cover_sum == sums.heaviest
        assert lipschitz_sq(w, z, t) == pytest.approx(sums.heaviest / (2.0 * t), rel=1e-12)

    @pytest.mark.parametrize("t", [1.0, 1e-2, 50.0])
    def test_star_attains_the_cover_bound(self, t):
        # K_{1,7} of unit weights with y = sqrt(t) on one edge: |grad f|^2 = 1/t = nu/t,
        # a quarter of W/2t = 4/t
        g = complete_bipartite_graph(1, 7)
        w = np.zeros((8, 8))
        w[0, 1:] = w[1:, 0] = 1.0
        z = np.zeros((8, 8))
        z[0, 3] = math.sqrt(t)
        sums = weight_sums(g)
        assert (sums.cover_sum, sums.heaviest) == (2.0, 8.0)
        assert lipschitz_sq(w, z, t) == pytest.approx(sums.cover_sum / (2.0 * t), rel=1e-12)
        assert lipschitz_sq(w, z, t) == pytest.approx(sums.heaviest / (8.0 * t), rel=1e-12)


class TestBoundsReport:
    def _est(self, g, t, k=500, seed=0):
        return estimate_log_phi_tilde(g, t, k, seed)

    def test_small_shift_regime(self, k4):
        est = self._est(complete_graph(10), 1.0)
        rep = bounds_report(est, 10, 1.0, c1_constant(), parts=((10.0, 10),))
        assert rep.gap_asymptotic == pytest.approx(2.5, rel=1e-12)
        assert rep.per_vertex_gap == pytest.approx(0.25, rel=1e-12)

    def test_constant_regime(self):
        est = self._est(complete_graph(10), 0.1)
        rep = bounds_report(est, 10, 0.1, c1_constant(), parts=((10.0, 10),))
        assert rep.gap_asymptotic == pytest.approx(12.70362845, abs=1e-6)

    def test_gap_vanishes_for_large_t(self, k4):
        est = self._est(k4, 1e9)
        rep = bounds_report(est, 4, 1e9, c1_constant(), parts=((4.0, 4),))
        assert rep.gap_asymptotic < 1e-8
        assert rep.upper_log - rep.lower_log < 1e-8

    def test_upper_never_below_lower(self, k4, random6):
        for g, t in [(k4, 0.5), (random6, 1.0), (random6, 3.0)]:
            est = self._est(g, t)
            rep = bounds_report(est, g.n_vertices, t, c1_constant(), parts=worst_case_parts(g))
            assert rep.upper_log >= rep.lower_log
            assert rep.gap_asymptotic >= 0
            assert rep.upper_log == rep.lower_log + rep.gap_asymptotic

    @pytest.mark.parametrize("t", [1e308, sys.float_info.max])
    def test_huge_t_bracket_is_finite(self, k4, triangle, t):
        # pi * t overflows a double past ~5.7e307
        for g in (k4, triangle):
            est = self._est(g, t, k=50)
            rep = bounds_report(est, g.n_vertices, t, c1_constant(), parts=worst_case_parts(g))
            assert all(math.isfinite(x) for x in astuple(rep))
            assert rep.gap_asymptotic >= 0
            assert rep.upper_log >= rep.lower_log

    def test_edgeless_gap_zero(self):
        g = WeightedGraph(4, ())
        est = self._est(g, 2.0)
        rep = bounds_report(est, 4, 2.0, c1_constant(), parts=weight_sums(g).parts)
        assert rep.gap_asymptotic == 0.0
        assert rep.upper_log == rep.lower_log

    def test_sandwich_against_oracle(self, k4, triangle, random6):
        for g in (k4, triangle, random6):
            for t in (0.5, 1.0, 2.0):
                est = estimate_log_phi_tilde(g, t, 50_000, 3)
                rep = bounds_report(est, g.n_vertices, t, c1_constant(), parts=worst_case_parts(g))
                log_phi = math.log(matching_counts(g).eval(t))
                slack = 4 * est.std_err
                assert rep.lower_log - slack <= log_phi <= rep.upper_log + slack

    @pytest.mark.parametrize("a, n, t", [
        (1.0, 10, 1.0), (1.0, 10, 0.1), (1.0, 4, 1e9), (math.sqrt(2.2), 6, 1.0),
        (math.sqrt(2.2), 6, 3.0), (0.0, 4, 2.0),
        (1.0, 3, 1e308), (1.7, 7, 0.3), (1.0, 64, 1.0), (math.sqrt(2.0), 128, 1.0),
    ])
    def test_worst_case_bits(self, a, n, t):
        est = estimate_log_phi_tilde(complete_graph(2), 1.0, 10, 0)
        c1 = c1_constant()
        want = n * min(a**2 / t / 4.0, c1) if a else 0.0
        rep = bounds_report(est, n, t, c1, parts=((a**2, 1),) * n)
        assert rep.gap_asymptotic == want
        assert rep.per_vertex_gap == want / n

    @pytest.mark.parametrize("seed", range(10))
    def test_gap_never_above_the_worst_case(self, seed):
        g = mixed_graph(seed) if seed % 2 else random_weighted_graph(
            np.random.default_rng(seed), 9, 0.3
        )
        parts = weight_sums(g).parts
        c1 = c1_constant()
        for t in (1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3):
            assert log_gap_bound(parts, t, c1) <= worst_case_gap(g, t, c1)

    def test_isolated_vertices_and_edgeless_parts_add_nothing(self):
        c1 = c1_constant()
        assert log_gap_bound((), 1.0, c1) == 0.0
        assert log_gap_bound(((0.0, 1), (4.0, 2)), 1.0, c1) == 1.0
        for t in (0.0, -1.0):  # no bound holds without t > 0
            with pytest.raises(ValueError, match="t must be positive"):
                log_gap_bound(((4.0, 2), (9.0, 3)), t, c1)

    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich_where_the_heaviest_weight_sums_bind(self, seed):
        g = mixed_graph(seed)
        parts = weight_sums(g).parts  # (2 nu_C, n_C) from the fractional vertex cover
        c1 = c1_constant()
        # the smallest t where every 2 nu_C / 4t is below n_C c1, times 1.2 to 4
        t_bind = max(w / (4.0 * n * c1) for w, n in parts)
        t = t_bind * float(np.random.default_rng(seed).uniform(1.2, 4.0))
        assert all(w / t / 4.0 < n * c1 for w, n in parts)
        assert g.n_vertices % 2 == 1 and len(parts) >= 2
        assert sum(n for _, n in parts) < g.n_vertices  # isolated vertices
        est = estimate_log_phi_tilde(g, t, 20_000, 90 + seed)
        rep = bounds_report(est, g.n_vertices, t, c1, parts=parts)
        assert rep.gap_asymptotic < worst_case_gap(g, t, c1)
        log_phi = matching_counts(g).log_eval(t)
        slack = 4 * est.std_err
        assert rep.lower_log - slack <= log_phi <= rep.upper_log + slack

    def test_odd_parity_shift(self, triangle):
        # at t = 4 the raw mean_log exceeds log(phi); the report must not
        est = estimate_log_phi_tilde(triangle, 4.0, 50_000, 3)
        rep = bounds_report(est, 3, 4.0, c1_constant(), parts=worst_case_parts(triangle))
        assert rep.lower_log == est.mean_log - 0.5 * math.log(4.0)
        log_phi = math.log(matching_counts(triangle).eval(4.0))
        assert rep.lower_log - 4 * est.std_err <= log_phi <= rep.upper_log + 4 * est.std_err


def cpu_features() -> dict:
    """numpy's map of CPU feature names to whether its dispatch may use them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def dispatch_run(normals: str, graph: str, report: str) -> bool:
    """Seed 1's normals of pair blocks 0-8 over its first 20,000 samples to normals (.npy),
    and the estimate report of the graph file at those samples to report; whether numpy
    may dispatch to X86_V4 in this process."""
    np.save(normals, estimator._normal_block(1, 0, 20_000, np.arange(9)))
    argv = ["estimate", "--graph", graph, "--t", "1", "--samples", "20000", "--seed", "1",
            "--format", "json", "--out", report]
    assert cli.main(argv) == 0
    return bool(cpu_features().get("X86_V4"))


def assert_close_leaves(got, want, rel: float, path: str = "report") -> None:
    """got and want have the same keys, lengths and values, floats to rel relative."""
    if isinstance(want, (dict, list)):
        keys = list(want) if isinstance(want, dict) else range(len(want))
        assert type(got) is type(want) and len(got) == len(want), path
        for key in keys:
            assert_close_leaves(got[key], want[key], rel, f"{path}.{key}")
    elif isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, path


class TestHostDispatch:
    """Bytes are fixed per host; across hosts, the normals and reports agree to a tolerance.

    numpy's float64 log takes an AVX-512 kernel where the CPU has one. A subprocess with
    numpy's dispatch capped at AVX2 stands in for a host without it.
    """

    @pytest.mark.skipif(not cpu_features().get("X86_V4"), reason="the host lacks X86_V4")
    def test_capped_dispatch_agrees_to_a_tolerance(self, tmp_path):
        graph = tmp_path / "random6.txt"
        graph.write_text(serialize_graph(WeightedGraph(6, RANDOM6_EDGES)))
        paths = {name: [str(tmp_path / f"{run}-{name}") for run in ("here", "capped")]
                 for name in ("normals.npy", "report.json")}
        assert dispatch_run(paths["normals.npy"][0], str(graph), paths["report.json"][0])
        python_path = [str(Path(matchbound.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR",
                   PYTHONPATH=os.pathsep.join(python_path + [os.environ.get("PYTHONPATH", "")]))
        script = ("import sys; from test_estimator import dispatch_run; "
                  "print(dispatch_run(*sys.argv[1:]))")
        run = subprocess.run(
            [sys.executable, "-c", script, paths["normals.npy"][1], str(graph),
             paths["report.json"][1]],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.strip() == "False"  # the cap took hold there, and only there
        assert "NPY_DISABLE_CPU_FEATURES" not in os.environ
        here, capped = (np.load(path) for path in paths["normals.npy"])
        assert np.all(np.abs(capped - here) <= 4 * np.spacing(np.abs(here)))
        here, capped = (json.loads(Path(path).read_text()) for path in paths["report.json"])
        assert_close_leaves(capped, here, 1e-13)
