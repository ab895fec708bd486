import math

import numpy as np
import pytest

from matchbound.analysis import c1_constant, gaussian_log_gap, optimality_sweep
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
            assert row.gap_bound == pytest.approx(0.5)

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

    def test_random_weight_mode_rejects_large_sides(self):
        with pytest.raises(ValueError, match="<= 4"):
            optimality_sweep([8], 1.0, 0.5, 2.0, 0, 100)

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
        with pytest.raises(ValueError):
            optimality_sweep([2], 1.0, 2.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            optimality_sweep([0], 1.0, 1.0, 1.0, 0, 10)
