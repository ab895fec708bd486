import math

import numpy as np
import pytest

from matchbound import estimator
from matchbound.analysis import c1_constant
from matchbound.estimator import (
    EstimatorError,
    RngStream,
    bounds_report,
    derive_seed,
    estimate_log_phi_tilde,
    plan_samples,
    sample_skew,
    tail_bound,
)
from matchbound.exact import matching_poly_eval
from matchbound.graphs import WeightedGraph, complete_graph, skew_adjacency
from matchbound.linalg import SingularAtZeroError, log_det_shifted

from conftest import gauss_hermite_expect

C1 = 1.2703628454614782  # Euler-Mascheroni + log 2


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

    def test_derive_seed_spread(self):
        seeds = {derive_seed(3, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestSampleSkew:
    def test_edgeless_is_zero(self):
        adj = skew_adjacency(WeightedGraph(4, ()))
        y = sample_skew(adj, RngStream(1), 0)
        assert np.array_equal(y.matrix, np.zeros((4, 4)))

    def test_k2_entries(self, k2_w4):
        adj = skew_adjacency(k2_w4)
        x = RngStream(11, 3).normals(1)[0]
        y = sample_skew(adj, RngStream(11), 3)
        assert y.matrix[0, 1] == 2.0 * x
        assert y.matrix[1, 0] == -2.0 * x

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
        assert est.failures == 0

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
        a = estimate_log_phi_tilde(k23, 0.5, 9000, 42)
        b = estimate_log_phi_tilde(k23, 0.5, 9000, 42)
        assert np.array_equal(a.per_sample, b.per_sample)
        assert a.mean_log == b.mean_log and a.std_err == b.std_err

    def test_thread_count_invariance(self, k23):
        one = estimate_log_phi_tilde(k23, 1.0, 9000, 5, threads=1)
        many = estimate_log_phi_tilde(k23, 1.0, 9000, 5, threads=8)
        assert np.array_equal(one.per_sample, many.per_sample)
        assert one.mean_log == many.mean_log

    def test_fast_path_agrees_with_dense(self, k23, p6):
        # bipartite graphs take the Gram route; each sample must match the
        # dense log-determinant of the same draw, and at t = 0 the Gram route
        # must not square the condition number of U
        for g, t, atol in ((k23, 1.0, 1e-11), (p6, 0.0, 1e-10)):
            fast = estimate_log_phi_tilde(g, t, 3000, 9)
            adj = skew_adjacency(g)
            dense, failures = [], 0
            for i in range(3000):
                try:
                    dense.append(log_det_shifted(sample_skew(adj, RngStream(9), i), t))
                except SingularAtZeroError:
                    failures += 1
            assert fast.failures == failures
            assert np.allclose(fast.per_sample, dense, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "graph, t", [("random6", 1.0), ("k23", 0.5), ("k4", 0.0), ("p6", 0.0)]
    )
    def test_batch_size_never_changes_a_sample(self, request, monkeypatch, graph, t):
        g = request.getfixturevalue(graph)
        default = estimate_log_phi_tilde(g, t, 100, 3)
        monkeypatch.setattr(estimator, "_BATCH", 7)
        small = estimate_log_phi_tilde(g, t, 100, 3)
        assert np.array_equal(default.per_sample, small.per_sample)
        assert default.failures == small.failures

    def test_bad_sample_count(self, k4):
        with pytest.raises(ValueError):
            estimate_log_phi_tilde(k4, 1.0, 0, 0)

    def test_t_zero_even_with_perfect_matching(self, k2_w4):
        est = estimate_log_phi_tilde(k2_w4, 0.0, 2000, 3)
        # E log det = log 4 + E log x^2 = log 4 - c1
        want = math.log(4.0) - C1
        assert abs(est.mean_log - want) < 5 * est.std_err
        assert est.failures == 0

    def test_t_zero_odd_rejected(self, triangle):
        with pytest.raises(ValueError, match="even"):
            estimate_log_phi_tilde(triangle, 0.0, 10, 0)

    def test_t_zero_no_perfect_matching_all_singular(self):
        star = WeightedGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        with pytest.raises(EstimatorError, match="singular"):
            estimate_log_phi_tilde(star, 0.0, 50, 0)

    def test_gge_sanity_even(self, k4):
        # arithmetic mean of determinants is unbiased for the polynomial value
        est = estimate_log_phi_tilde(k4, 1.0, 400_000, 21)
        want = matching_poly_eval(k4, 1.0)
        assert abs(est.mean_det - want) < 4 * est.std_err_det

    def test_gge_sanity_odd(self, triangle):
        est = estimate_log_phi_tilde(triangle, 2.0, 400_000, 22)
        want = math.sqrt(2.0) * matching_poly_eval(triangle, 2.0)
        assert abs(est.mean_det - want) < 4 * est.std_err_det


class TestPlanner:
    def test_worked_example(self):
        plan = plan_samples(1.0, 4.0 / math.exp(2.0), 10, 1.0, 1.0)
        assert plan.samples == 160
        assert plan.deviation_radius == pytest.approx(0.05)

    def test_cli_example(self):
        plan = plan_samples(0.5, 0.25, 2, 1.0, 1.0)
        assert plan.samples == 178

    def test_amplitude_scaling(self):
        base = plan_samples(0.5, 0.25, 6, 1.0, 1.0)
        doubled = plan_samples(0.5, 0.25, 6, 2.0, 1.0)
        assert doubled.samples == pytest.approx(4 * base.samples, abs=4)

    def test_epsilon_scaling(self):
        base = plan_samples(0.5, 0.25, 6, 1.0, 1.0)
        halved = plan_samples(0.25, 0.25, 6, 1.0, 1.0)
        assert halved.samples == pytest.approx(4 * base.samples, abs=4)

    def test_predicted_cost(self):
        plan = plan_samples(0.5, 0.25, 4, 1.0, 1.0)
        assert plan.predicted_cost == plan.samples * 64.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            plan_samples(0.0, 0.25, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_samples(1.5, 0.25, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_samples(0.5, 1.0, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_samples(0.5, 0.25, 4, 0.0, 1.0)
        with pytest.raises(ValueError):
            plan_samples(0.5, 0.25, 4, 1.0, 0.0)


class TestTailBound:
    def test_direct_substitution(self):
        assert tail_bound(1.0, 1, 1, 1.0, 2.0) == pytest.approx(2.0 / math.e, rel=1e-15)

    def test_vacuous_at_zero_radius(self):
        assert tail_bound(0.0, 4, 10, 1.0, 1.0) == 2.0

    def test_planner_consistency(self):
        for eps, delta in [(0.5, 0.25), (0.2, 0.1), (1.0, 0.9)]:
            plan = plan_samples(eps, delta, 6, 1.3, 0.7)
            bound = tail_bound(plan.deviation_radius, 6, plan.samples, 1.3, 0.7)
            assert bound <= delta / 2.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_bound(-0.1, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            tail_bound(0.1, 1, 1, 1.0, 0.0)


class TestBoundsReport:
    def _est(self, g, t, k=500, seed=0):
        return estimate_log_phi_tilde(g, t, k, seed)

    def test_small_shift_regime(self, k4):
        est = self._est(complete_graph(10), 1.0)
        rep = bounds_report(est, 1.0, 10, 1.0, c1_constant())
        assert rep.gap_asymptotic == pytest.approx(5.0, rel=1e-12)
        assert rep.per_vertex_gap == pytest.approx(0.5, rel=1e-12)

    def test_constant_regime(self):
        est = self._est(complete_graph(10), 0.1)
        rep = bounds_report(est, 1.0, 10, 0.1, c1_constant())
        assert rep.gap_asymptotic == pytest.approx(12.70362845, abs=1e-6)

    def test_gap_vanishes_for_large_t(self, k4):
        est = self._est(k4, 1e9)
        rep = bounds_report(est, 1.0, 4, 1e9, c1_constant())
        assert rep.gap_asymptotic < 1e-8
        assert rep.upper_log - rep.lower_log < 1e-8

    def test_upper_never_below_lower(self, k4, random6):
        for g, t in [(k4, 0.5), (random6, 1.0), (random6, 3.0)]:
            est = self._est(g, t)
            a = math.sqrt(g.max_weight)
            rep = bounds_report(est, a, g.n_vertices, t, c1_constant())
            assert rep.upper_log >= rep.lower_log
            assert rep.gap_asymptotic >= 0 and rep.gap_finite_sample >= 0
            assert rep.upper_log == rep.lower_log + min(
                rep.gap_asymptotic, rep.gap_finite_sample
            )

    def test_saturation_at_huge_exponent(self, k4):
        est = self._est(k4, 0.01, k=100_000)
        rep = bounds_report(est, 1.0, 4, 0.01, c1_constant())
        assert rep.gap_finite_sample == rep.gap_asymptotic

    def test_edgeless_gap_zero(self):
        g = WeightedGraph(4, ())
        est = self._est(g, 2.0)
        rep = bounds_report(est, 0.0, 4, 2.0, c1_constant())
        assert rep.gap_asymptotic == 0.0
        assert rep.upper_log == rep.lower_log

    def test_sandwich_against_oracle(self, k4, triangle, random6):
        for g in (k4, triangle, random6):
            for t in (0.5, 1.0, 2.0):
                est = estimate_log_phi_tilde(g, t, 50_000, 3)
                a = math.sqrt(g.max_weight)
                rep = bounds_report(est, a, g.n_vertices, t, c1_constant())
                log_phi = math.log(matching_poly_eval(g, t))
                slack = 4 * est.std_err
                assert rep.lower_log - slack <= log_phi <= rep.upper_log + slack

    def test_odd_parity_shift(self, triangle):
        # at t = 4 the raw mean_log exceeds log(phi); the report must not
        est = estimate_log_phi_tilde(triangle, 4.0, 50_000, 3)
        rep = bounds_report(est, 1.0, 3, 4.0, c1_constant())
        assert rep.lower_log == est.mean_log - 0.5 * math.log(4.0)
        log_phi = math.log(matching_poly_eval(triangle, 4.0))
        assert rep.lower_log - 4 * est.std_err <= log_phi <= rep.upper_log + 4 * est.std_err
