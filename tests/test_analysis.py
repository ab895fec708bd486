import math

import numpy as np
import pytest

from matchbound import analysis
from matchbound.analysis import c1_constant, gaussian_log_gap, optimality_sweep
from matchbound.estimator import RngStream, derive_seed, estimate_log_phi_tilde
from matchbound.exact import complete_bipartite_counts

from conftest import EULER_GAMMA, gauss_hermite_expect, shifted_log_gap_series

# frozen spot values, computed offline twice: scipy adaptive quadrature with
# the singular point declared, and large-sample Monte Carlo
GAP_REFERENCES = {
    0.25: 1.2691331197,
    0.5: 1.2535849390,
    1.0: 1.1101388174,
    2.0: 0.5687341903,
    4.0: 0.1310260447,
    8.0: 0.0315162424,
    10.0: 0.0201056142,
    16.0: 0.0078280829,
}


class TestC1:
    def test_value(self):
        assert c1_constant() == pytest.approx(1.270362845, abs=1e-8)

    def test_euler_mascheroni_identity(self):
        assert c1_constant() == pytest.approx(EULER_GAMMA + math.log(2.0), abs=1e-9)

    def test_fast(self):
        import time

        start = time.monotonic()
        c1_constant()
        assert time.monotonic() - start < 1.0

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2_000_000)
        mc = -np.log(x * x).mean()
        se = np.log(x * x).std() / math.sqrt(x.size)
        assert abs(c1_constant() - mc) < 5 * se


class TestGaussianLogGap:
    def test_zero_matches_c1(self):
        assert gaussian_log_gap(0.0) == pytest.approx(c1_constant(), abs=1e-9)

    @pytest.mark.parametrize("a,want", sorted(GAP_REFERENCES.items()))
    def test_frozen_references(self, a, want):
        assert gaussian_log_gap(a) == pytest.approx(want, abs=5e-9)
        assert shifted_log_gap_series(a) == pytest.approx(want, abs=5e-9)

    def test_strictly_decreasing_grid(self):
        grid = [gaussian_log_gap(0.25 * i) for i in range(33)]
        assert all(x > y for x, y in zip(grid, grid[1:]))

    def test_tail_asymptotics(self):
        # behaves like 2/a^2 + 1/a^4 for large shifts
        for a in (8.0, 10.0, 16.0):
            assert gaussian_log_gap(a) == pytest.approx(2 / a**2 + 1 / a**4, rel=0.02)

    @pytest.mark.parametrize("a", [300.0, 1e3, 6e3, 1e5])
    def test_large_shift_inside_the_rate_bracket(self, a):
        # the series cancels to a relative error near 1e-15 a^2, outside this bracket by 6e3
        assert 2 / a**2 < gaussian_log_gap(a) < 2 / a**2 + 2 / a**4

    def test_expansion_meets_the_series_at_the_switch(self):
        below = gaussian_log_gap(math.nextafter(100.0, 0.0))
        assert gaussian_log_gap(100.0) == pytest.approx(below, rel=1e-10)
        assert gaussian_log_gap(100.0) == pytest.approx(shifted_log_gap_series(100.0), rel=1e-10)

    @pytest.mark.parametrize("a", [1e10, 1e150])
    def test_huge_shift_is_the_leading_term(self, a):
        assert gaussian_log_gap(a) == pytest.approx(2 / a**2, rel=1e-15)

    @pytest.mark.parametrize("a", [1e200, 1e308])
    def test_shift_whose_square_overflows(self, a):
        gap = gaussian_log_gap(a)
        assert math.isfinite(gap) and gap >= 0.0

    def test_nonnegative_and_bounded_by_c1(self):
        c1 = c1_constant()
        for a in (0.0, 0.5, 1.5, 3.0, 6.0):
            g = gaussian_log_gap(a)
            assert 0.0 < g <= c1 + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_log_gap(-0.5)


class TestOptimalitySweep:
    def test_single_vertex_pair_gap(self):
        rows = optimality_sweep([1], 1.0, 1.0, 1.0, 3, 40_000)
        row = rows[0]
        assert row.exact_per_vertex == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
        want_gap = (math.log(2.0) - gauss_hermite_expect(lambda x: np.log1p(x * x))) / 2.0
        assert want_gap == pytest.approx(0.0798470, abs=1e-6)
        assert abs(row.gap_per_vertex - want_gap) < 4 * row.std_err_per_vertex

    def test_rows_satisfy_bound_and_jensen(self):
        rows = optimality_sweep([1, 2, 4], 1.0, 1.0, 1.0, 5, 8_000)
        for row in rows:
            slack = 4 * row.std_err_per_vertex
            assert row.gap_per_vertex >= -slack
            assert row.gap_per_vertex <= row.gap_bound + slack
            assert row.gap_bound == pytest.approx(0.25)

    def test_gap_trends_down(self):
        rows = optimality_sweep([2, 16], 1.0, 1.0, 1.0, 11, 8_000)
        assert rows[-1].gap_per_vertex < rows[0].gap_per_vertex

    def test_exact_column_matches_closed_form(self):
        rows = optimality_sweep([3], 2.0, 4.0, 4.0, 0, 100)
        want = complete_bipartite_counts(3, 3, 4.0).log_eval(2.0) / 6.0
        assert rows[0].exact_per_vertex == pytest.approx(want, rel=1e-12)

    def test_random_weight_mode_small_sides(self):
        rows = optimality_sweep([(2, 3)], 1.0, 0.25, 4.0, 7, 4_000)
        row = rows[0]
        assert (row.m, row.n) == (2, 3)
        assert row.amplitude_lo == 0.5 and row.amplitude_hi == 2.0
        slack = 4 * row.std_err_per_vertex
        assert -slack <= row.gap_per_vertex <= row.gap_bound + slack

    @pytest.mark.parametrize("side, t", [((2, 3), 4.0), (4, 2.0), ((1, 5), 8.0)])
    def test_random_weight_gap_bound_is_per_component(self, side, t):
        # the bracket's own gap, per vertex: sharper than min(w_hi / 4t, c1)
        row = optimality_sweep([side], t, 0.25, 4.0, 13, 50)[0]
        u = RngStream(derive_seed(13, 0), 2**64 - 1).uniforms(row.m * row.n)
        w = 0.25 + 3.75 * u.reshape(row.m, row.n)
        nu = min(math.fsum(w.max(axis=1)), math.fsum(w.max(axis=0)))  # the lighter side
        n_vertices = row.m + row.n
        want = min(2.0 * nu / t / 4.0, n_vertices * c1_constant()) / n_vertices
        assert row.gap_bound == pytest.approx(want, rel=1e-15)
        assert row.gap_bound < min(4.0 / t / 4.0, c1_constant())

    def test_random_weights_share_no_uniform_with_the_samples(self, monkeypatch):
        # each weight is lo + span u for a uniform u of its own; none may be a uniform
        # that a sample of the same row turns into a normal
        calls = []

        def record(g, t, k, seed, **kwargs):
            calls.append((g, k, seed))
            return estimate_log_phi_tilde(g, t, k, seed, **kwargs)

        monkeypatch.setattr(analysis, "estimate_log_phi_tilde", record)
        optimality_sweep([(2, 3)], 1.0, 0.25, 4.0, 7, 50)
        (g, k, seed), = calls
        pairs = g.n_vertices * (g.n_vertices - 1) // 2  # positions 1 to 2 pairs hold every block
        drawn = {0.25 + 3.75 * u for i in range(k) for u in RngStream(seed, i).uniforms(2 * pairs)}
        assert not drawn & {w for _, _, w in g.edges}

    def test_random_weight_mode_large_sides(self):
        # K_{8,8} with random weights is counted exactly by the profile DP
        row = optimality_sweep([8], 1.0, 0.5, 2.0, 0, 4_000)[0]
        assert (row.m, row.n) == (8, 8)
        slack = 4 * row.std_err_per_vertex
        assert -slack <= row.gap_per_vertex <= row.gap_bound + slack

    def test_rectangular_sides_normalized(self):
        rows = optimality_sweep([(5, 2)], 1.0, 1.0, 1.0, 0, 500)
        assert (rows[0].m, rows[0].n) == (2, 5)

    def test_deterministic_per_seed(self):
        a = optimality_sweep([2], 1.0, 1.0, 1.0, 9, 2_000)
        b = optimality_sweep([2], 1.0, 1.0, 1.0, 9, 2_000)
        assert a[0].estimate_per_vertex == b[0].estimate_per_vertex

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            optimality_sweep([2], 0.0, 1.0, 1.0, 0, 10)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                optimality_sweep([2], t, 1.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            optimality_sweep([2], 1.0, 2.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            optimality_sweep([0], 1.0, 1.0, 1.0, 0, 10)
