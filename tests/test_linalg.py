import math

import numpy as np
import pytest

from matchbound.estimator import RngStream, sample_skew
from matchbound.graphs import WeightedGraph, complete_graph, skew_adjacency
from matchbound.linalg import (
    BipartiteSample,
    NonPositiveDeterminantError,
    SingularAtZeroError,
    SkewSample,
    bipartite_block,
    gram_logdet_batch,
    log_det_bipartite,
    log_det_shifted,
    skew_logdet_batch,
)


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
        for t in (0.0, 0.8):
            dense = skew_logdet_batch(ys.copy(), t)
            gram = gram_logdet_batch(us, t)
            for i in range(8):
                assert dense[i] == skew_logdet_batch(ys[i : i + 1].copy(), t)[0]
                assert gram[i] == gram_logdet_batch(us[i : i + 1], t)[0]

    def test_singular_floor(self):
        mats = np.zeros((2, 4, 4))
        mats[1] = np.eye(4)
        for kernel in (skew_logdet_batch, gram_logdet_batch):
            values = kernel(mats.copy(), 0.0)
            assert values.tolist() == [-np.inf, 0.0]

    def test_non_finite_determinant_raises(self):
        mats = np.zeros((3, 2, 2))
        mats[2, 0, 1] = mats[2, 1, 0] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonPositiveDeterminantError, match="sample 2 "):
                skew_logdet_batch(mats, 1.0)
            with pytest.raises(NonPositiveDeterminantError, match="sample 0 "):
                gram_logdet_batch(np.full((1, 2, 2), 1e200), 1.0)  # U U^T overflows


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

    def test_even_dim_t_to_zero_limit(self):
        rng = np.random.default_rng(9)
        y = random_skew(rng, 6)
        at_zero = log_det_shifted(y, 0.0)
        near_zero = log_det_shifted(y, 1e-12)
        assert near_zero == pytest.approx(at_zero, rel=1e-6)

    def test_t_zero_odd_dim_rejected(self):
        y = SkewSample(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="even"):
            log_det_shifted(y, 0.0)

    def test_t_zero_structural_singularity(self):
        # a star K_{1,3} sample has rank 2, so its determinant vanishes
        star = WeightedGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        y = sample_skew(skew_adjacency(star), RngStream(5), 0)
        with pytest.raises(SingularAtZeroError):
            log_det_shifted(y, 0.0)

    def test_t_zero_perfect_matching_ok(self):
        y = SkewSample(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert log_det_shifted(y, 0.0) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            log_det_shifted(SkewSample(np.zeros((2, 2))), -1.0)

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

    def test_t_zero_square_nonsingular(self):
        rng = np.random.default_rng(12)
        u = BipartiteSample(rng.standard_normal((4, 4)))
        want = log_det_shifted(bipartite_block(u), 0.0)
        assert log_det_bipartite(u, 0.0) == pytest.approx(want, rel=1e-9)

    def test_t_zero_singular_gram(self):
        u = BipartiteSample(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SingularAtZeroError):
            log_det_bipartite(u, 0.0)

    def test_t_zero_rectangular_rejected(self):
        u = BipartiteSample(np.array([[1.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="m = n"):
            log_det_bipartite(u, 0.0)

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

    def test_t_zero_rectangular_all_singular(self):
        u = np.ones((4, 2, 3))
        values = gram_logdet_batch(u, 0.0)
        assert (values == -np.inf).all()


def test_bipartite_block_shape():
    u = BipartiteSample(np.arange(6.0).reshape(2, 3))
    y = bipartite_block(u)
    assert y.dimension == 5
    assert np.array_equal(y.matrix[:2, 2:], u.matrix)


def test_large_sample_round_trip():
    g = complete_graph(10, 2.5)
    y = sample_skew(skew_adjacency(g), RngStream(31), 4)
    assert log_det_shifted(y, 1.3) == pytest.approx(eigen_oracle(y, 1.3), rel=1e-10)
