import math
from fractions import Fraction

import numpy as np
import pytest

from matchbound.estimator import RngStream, sample_skew
from matchbound.graphs import complete_graph, skew_adjacency
from matchbound.linalg import (
    GROWTH_CAP,
    SMALL_ORDER,
    BipartiteSample,
    NonPositiveDeterminantError,
    SkewSample,
    bipartite_block,
    chain_logdet_batch,
    gram_logdet_batch,
    log_det_bipartite,
    log_det_shifted,
    skew_logdet_batch,
)

from conftest import exact_det, exact_log


def assert_fails_at_row_alone(kernel, mats, clean, row):
    """kernel(mats, 1) is not finite at row and bitwise kernel(clean, 1) at every other."""
    got, want = kernel(mats.copy(), 1.0), kernel(clean.copy(), 1.0)
    assert np.flatnonzero(~np.isfinite(got)).tolist() == [row]
    assert np.array_equal(np.delete(got, row), np.delete(want, row))


def random_skew(rng: np.random.Generator, n: int) -> SkewSample:
    a = rng.standard_normal((n, n))
    return SkewSample(np.triu(a, 1) - np.triu(a, 1).T)


def eigen_oracle(y: SkewSample, t: float) -> float:
    """Independent route: the Hermitian matrix i*Y has eigenvalues +-s_j
    (zheevd, not the LU behind slogdet), so log det = sum of half-logs."""
    squared = np.linalg.eigvalsh(1j * y.matrix) ** 2
    return float(0.5 * np.log(t + squared).sum())


class TestLuKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_against_numpy_slogdet(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((40, n, n))
        ys = np.triu(a, 1) - np.triu(a, 1).transpose(0, 2, 1)
        us = rng.standard_normal((40, n, n + 2))
        t = 0.7
        dense = skew_logdet_batch(ys.copy(), t)
        assert (dense > -np.inf).all()
        assert np.allclose(dense, np.linalg.slogdet(ys + math.sqrt(t) * np.eye(n))[1],
                           rtol=1e-14, atol=0)
        blocks = np.array([bipartite_block(BipartiteSample(u)).matrix for u in us])
        gram = gram_logdet_batch(us, t)
        assert (gram > -np.inf).all()
        assert np.allclose(gram, np.linalg.slogdet(blocks + math.sqrt(t) * np.eye(2 * n + 2))[1],
                           rtol=1e-10, atol=0)

    def test_scalar_equals_batched_bitwise(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((8, 6, 6))
        ys = np.triu(a, 1) - np.triu(a, 1).transpose(0, 2, 1)
        us = rng.standard_normal((8, 3, 3))
        for t in (1e-2, 0.8):  # at 1e-2 most of the dense stack is past GROWTH_CAP
            dense = skew_logdet_batch(ys.copy(), t)
            gram = gram_logdet_batch(us, t)
            for i in range(8):
                assert dense[i] == skew_logdet_batch(ys[i : i + 1].copy(), t)[0]
                assert gram[i] == gram_logdet_batch(us[i : i + 1], t)[0]

    def test_non_finite_determinant_raises(self):
        # the kernels return the failure as a value that is not finite, at its row alone;
        # the scalar helpers raise on it
        mats = np.zeros((3, 2, 2))
        mats[2, 0, 1] = mats[2, 1, 0] = np.nan
        assert_fails_at_row_alone(skew_logdet_batch, mats, np.zeros((3, 2, 2)), 2)
        us = np.ones((3, 2, 2))
        us[0] = 1e200  # U U^T overflows
        assert_fails_at_row_alone(gram_logdet_batch, us, np.ones((3, 2, 2)), 0)
        y = SkewSample(np.zeros((2, 2)))
        y.matrix[0, 1] = y.matrix[1, 0] = np.nan
        with pytest.raises(NonPositiveDeterminantError, match="^log det nan where "):
            log_det_shifted(y, 1.0)
        with pytest.raises(NonPositiveDeterminantError, match="^log det (nan|inf) where "):
            log_det_bipartite(BipartiteSample(np.full((2, 2), 1e200)), 1.0)


class TestLogDetShifted:
    def test_two_by_two_closed_form(self):
        for c, t in [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)]:
            y = SkewSample(np.array([[0.0, c], [-c, 0.0]]))
            assert log_det_shifted(y, t) == pytest.approx(math.log(t + c * c), rel=1e-14)

    def test_zero_matrix_gives_half_dim_log_t(self):
        for n, t in [(2, 0.5), (5, math.e), (8, 3.0)]:
            y = SkewSample(np.zeros((n, n)))
            assert log_det_shifted(y, t) == pytest.approx(0.5 * n * math.log(t), rel=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_eigenvalue_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(2, 13))
        t = float(rng.choice([0.25, 1.0, 4.0]))
        y = random_skew(rng, n)
        got = log_det_shifted(y, t)
        want = eigen_oracle(y, t)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(8))
    def test_positivity_floor(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 11))
        t = float(rng.uniform(0.05, 4.0))
        y = random_skew(rng, n)
        assert log_det_shifted(y, t) >= 0.5 * n * math.log(t) - 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = 6
        y = random_skew(rng, n)
        t, c = 0.7, 2.5
        lhs = log_det_shifted(SkewSample(c * y.matrix), c * c * t)
        rhs = n * math.log(c) + log_det_shifted(y, t)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_negative_t_rejected(self):
        for t in (-1.0, 0.0, -0.0, math.nan):  # t = 0 too: the determinant may vanish
            with pytest.raises(ValueError, match="positive"):
                log_det_shifted(SkewSample(np.zeros((2, 2))), t)

    def test_skew_validation(self):
        with pytest.raises(ValueError):
            SkewSample(np.ones((2, 2)))
        with pytest.raises(ValueError):
            SkewSample(np.zeros((2, 3)))


class TestLogDetBipartite:
    def test_square_one_by_one(self):
        for c, t in [(1.0, 1.0), (2.0, 0.5)]:
            u = BipartiteSample(np.array([[c]]))
            assert log_det_bipartite(u, t) == pytest.approx(math.log(t + c * c), rel=1e-14)

    def test_rectangular_unit_row(self):
        u = BipartiteSample(np.array([[1.0, 0.0, 0.0]]))
        assert log_det_bipartite(u, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_block_embedding(self, seed):
        rng = np.random.default_rng(900 + seed)
        m = int(rng.integers(1, 13))
        n = int(rng.integers(m, 13))
        t = float(rng.choice([0.3, 1.0, 3.0]))
        u = BipartiteSample(rng.standard_normal((m, n)))
        got = log_det_bipartite(u, t)
        want = log_det_shifted(bipartite_block(u), t)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_nonpositive_t_rejected(self):
        for t in (-1.0, 0.0, -0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                log_det_bipartite(BipartiteSample(np.eye(2)), t)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="m <= n"):
            BipartiteSample(np.zeros((3, 2)))


class TestGramBatch:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(77)
        u = rng.standard_normal((30, 3, 5))
        values = gram_logdet_batch(u.copy(), 0.8)
        assert (values > -np.inf).all()
        for i in range(30):
            want = log_det_shifted(bipartite_block(BipartiteSample(u[i])), 0.8)
            assert values[i] == pytest.approx(want, rel=1e-11)


class TestChainBatch:
    """The continuant recurrence is the log-determinant of the skew-tridiagonal matrix."""

    @pytest.mark.parametrize("t", [1e-300, 1e-8, 1.0, 1e8, 1e300])
    @pytest.mark.parametrize("length, order", [(1, 2), (1, 8), (2, 3), (5, 6), (5, 9)])
    def test_is_the_exact_determinant(self, length, order, t):
        # order - length - 1 vertices lie past the chain and add (1/2) log t each
        rng = np.random.default_rng(length * 10 + order)
        c2 = rng.chisquare(3, (length, 6)) * 10.0 ** rng.uniform(-3, 3, (length, 6))
        got = chain_logdet_batch(c2, t, order)
        for b in range(6):
            off = np.sqrt(c2[:, b])
            y = np.diag(off, 1) - np.diag(off, -1) + math.sqrt(t) * np.eye(length + 1)
            want = exact_log(exact_det(y)) + 0.5 * (order - length - 1) * math.log(t)
            assert got[b] == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_a_column_depends_on_itself_alone(self):
        rng = np.random.default_rng(4)
        c2 = rng.chisquare(2, (7, 50))
        whole = chain_logdet_batch(c2, 0.3, 8)
        assert np.array_equal(whole[17:18], chain_logdet_batch(c2[:, 17:18].copy(), 0.3, 8))
        assert np.array_equal(whole[::3], chain_logdet_batch(c2[:, ::3].copy(), 0.3, 8))

    def test_overflow_is_a_value(self):
        c2 = np.array([[1.0, 1e308], [1.0, 1e308]])
        got = chain_logdet_batch(c2, 1e-300, 3)
        assert math.isfinite(got[0]) and not math.isfinite(got[1])


def test_bipartite_block_shape():
    u = BipartiteSample(np.arange(6.0).reshape(2, 3))
    y = bipartite_block(u)
    assert y.dimension == 5
    assert np.array_equal(y.matrix[:2, 2:], u.matrix)


def test_large_sample_round_trip():
    g = complete_graph(10, 2.5)
    y = sample_skew(skew_adjacency(g), RngStream(31), 4)
    assert log_det_shifted(y, 1.3) == pytest.approx(eigen_oracle(y, 1.3), rel=1e-10)


def random_weights(rng: np.random.Generator, rows: int, cols: int, t: float) -> np.ndarray:
    """Edge weights t 10^U(-1, 2.5) on about 60% of the rows x cols entries, else 0."""
    w = t * 10.0 ** rng.uniform(-1.0, 2.5, (rows, cols))
    return np.where(rng.random((rows, cols)) < 0.6, w, 0.0)


def shifted_skew(rng: np.random.Generator, n: int, t: float, count: int) -> np.ndarray:
    """count samples sqrt(t) I + Y of one random weighted graph on n vertices."""
    coef = np.triu(np.sqrt(random_weights(rng, n, n, t)), 1)
    y = coef * rng.standard_normal((count, n, n))
    y -= y.transpose(0, 2, 1)
    y[:, np.arange(n), np.arange(n)] = math.sqrt(t)
    return y


def within_slogdet_error(got: float, slogdet: float, exact: float) -> bool:
    """got's error is at most 4 x slogdet's, or 1e-14 relative."""
    return abs(got - exact) <= max(4.0 * abs(slogdet - exact), 1e-14 * abs(exact))


class TestSmallOrderKernels:
    """Elimination without pivoting against the exact determinant of the same float matrix."""

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_dense_against_exact(self, t):
        rng = np.random.default_rng(int(-math.log10(t)))
        fitted = []
        for n in range(2, SMALL_ORDER + 1):
            mats = shifted_skew(rng, n, t, 6)
            got = skew_logdet_batch(mats.copy(), t)
            slogdet = np.linalg.slogdet(mats)[1]
            for i, m in enumerate(mats):
                exact = exact_log(exact_det(m))
                assert within_slogdet_error(got[i], slogdet[i], exact), (n, i)
                y = m - np.diag(np.diag(m))
                fitted.append(np.sum(y * y) <= GROWTH_CAP * t)
        assert 0 < sum(fitted) < len(fitted)  # both sides of the growth cap

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_gram_against_exact(self, t):
        # every weight within the Gram route's switch: n_C eps max_w / t <= 1e-12
        rng = np.random.default_rng(20 + int(-math.log10(t)))
        for m in range(1, 7):
            for n in range(m, SMALL_ORDER + 1 - m):
                coef = np.sqrt(random_weights(rng, m, n, t))
                us = coef * rng.standard_normal((4, m, n))
                got = gram_logdet_batch(us, t)
                shift = 0.5 * (n - m) * math.log(t)
                gram = us @ us.transpose(0, 2, 1) + t * np.eye(m)
                slogdet = np.linalg.slogdet(gram)[1] + shift
                for i, u in enumerate(us):
                    exact_gram = [[Fraction(t) * (p == q) for q in range(m)] for p in range(m)]
                    rows = [[Fraction(x) for x in row] for row in u.tolist()]
                    for p in range(m):
                        for q in range(m):
                            exact_gram[p][q] += sum(a * b for a, b in zip(rows[p], rows[q]))
                    exact = exact_log(exact_det(exact_gram)) + shift
                    assert within_slogdet_error(got[i], slogdet[i], exact), (m, n, i)

    def test_rows_past_the_cap_take_slogdet(self, monkeypatch):
        # one stack with matrices on both sides of ||Y||_F^2 = GROWTH_CAP t
        rng, n, t = np.random.default_rng(41), 8, 1e-4
        y = np.triu(rng.standard_normal((6, n, n)), 1)
        y -= y.transpose(0, 2, 1)
        y *= np.sqrt(GROWTH_CAP * t / np.sum(y * y, axis=(1, 2)))[:, None, None]
        y *= np.array([1 - 1e-9, 1 + 1e-9, 0.5, 3.0, 1 - 1e-9, 10.0])[:, None, None]
        mats = y + math.sqrt(t) * np.eye(n)
        factored = []

        def spy(a):
            factored.extend(a.copy())
            return slogdet(a)

        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", spy)
        got = skew_logdet_batch(y.copy(), t)
        assert np.array_equal(np.array(factored), mats[[1, 3, 5]])
        assert np.array_equal(got[[1, 3, 5]], slogdet(mats[[1, 3, 5]])[1])
        for i in (0, 2, 4):
            exact = exact_log(exact_det(mats[i]))
            assert within_slogdet_error(got[i], slogdet(mats[i])[1], exact)

    @pytest.mark.parametrize("t", [1.0, 0.37, 1e-4])
    def test_cap_sees_the_copied_norm(self, monkeypatch, t):
        # the reference ||Y||_F^2: the upper triangle copied out, squared, and its rows
        # added in row-major order
        def copied_norm2(y):
            a = np.ascontiguousarray(y.transpose(1, 2, 0))
            upper = a[np.triu_indices(len(a), 1)]
            upper *= upper
            norm2 = np.zeros(a.shape[2])
            for row in upper:
                norm2 += row
            return 2.0 * norm2

        factored = []

        def spy(a):
            factored.append(a.copy())
            return slogdet(a)

        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", spy)
        rng, cap, ulp = np.random.default_rng(47), GROWTH_CAP * t, np.spacing(GROWTH_CAP * t)
        near = []
        for n in range(2, SMALL_ORDER + 1):
            # entries over three decades, scaled onto the cap, then nudged by a few ulps
            y = np.triu(rng.standard_normal((40, n, n)) * 10.0 ** rng.uniform(-1.5, 1.5, (n, n)), 1)
            y -= y.transpose(0, 2, 1)
            y *= np.sqrt(cap / copied_norm2(y))[:, None, None]
            y *= (1.0 + rng.integers(-3, 4, 40) * 2.0**-52)[:, None, None]
            y[:4] *= np.array([0.5, 0.999, 1.001, 2.0])[:, None, None]
            norm2 = copied_norm2(y)
            far = norm2 > cap
            near.append(far[np.abs(norm2 - cap) <= 4 * ulp])
            factored.clear()
            skew_logdet_batch(y.copy(), t)
            assert np.array_equal(np.concatenate(factored or [np.empty((0, n, n))]),
                                  y[far] + math.sqrt(t) * np.eye(n)), n
        near = np.concatenate(near)
        assert near.sum() > 20 and (~near).sum() > 20  # within 4 ulps, on both sides

    @pytest.mark.parametrize("entry", [3.0, 1.0])
    def test_non_positive_pivot_raises(self, entry):
        # a symmetric entry pair makes the second pivot 1 - entry^2: negative, or zero
        rng = np.random.default_rng(3)
        y = np.triu(rng.standard_normal((5, 4, 4)), 1) * 0.1
        y -= y.transpose(0, 2, 1)
        clean = y.copy()
        y[3, 0, 1] = y[3, 1, 0] = entry
        assert_fails_at_row_alone(skew_logdet_batch, y, clean, 3)
        sample = SkewSample(np.zeros((4, 4)))  # a scalar caller raises on it
        sample.matrix[:] = y[3]
        with pytest.raises(NonPositiveDeterminantError, match="^log det (nan|-inf) where "):
            log_det_shifted(sample, 1.0)

    def test_gram_health_check_names_the_sample(self):
        us = np.ones((4, 2, 5))
        us[2, 1, 3] = np.nan
        assert_fails_at_row_alone(gram_logdet_batch, us, np.ones((4, 2, 5)), 2)
        with pytest.raises(NonPositiveDeterminantError, match="^log det nan where "):
            log_det_bipartite(BipartiteSample(us[2]), 1.0)

    @pytest.mark.parametrize("m", [13, 32])
    def test_gram_layout_never_changes_a_bit_past_small_order(self, m):
        # U U^T is a matmul past SMALL_ORDER, and matmul sums in an order that follows
        # the memory layout: a batch-innermost stack must give the C-order stack's bits
        u = np.random.default_rng(m).standard_normal((64, m, m))
        batch_inner = np.ascontiguousarray(u.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.array_equal(gram_logdet_batch(batch_inner, 1.0), gram_logdet_batch(u, 1.0))

    def test_layout_never_changes_a_bit(self):
        # the estimator hands over a view of (n, n, B) memory; a scalar caller a C-order stack
        rng = np.random.default_rng(8)
        y = np.triu(rng.standard_normal((9, 7, 7)), 1)
        y -= y.transpose(0, 2, 1)
        u = rng.standard_normal((9, 3, 5))
        batch_inner = np.ascontiguousarray(y.transpose(1, 2, 0)).transpose(2, 0, 1)
        dense = skew_logdet_batch(batch_inner, 0.6)
        gram = gram_logdet_batch(np.ascontiguousarray(u.transpose(1, 2, 0)).transpose(2, 0, 1), 0.6)
        for i in range(9):
            assert dense[i] == skew_logdet_batch(y[i : i + 1].copy(), 0.6)[0]
            assert gram[i] == gram_logdet_batch(u[i : i + 1], 0.6)[0]
