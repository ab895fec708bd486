"""Log-determinants of shifted skew-symmetric matrices, by elimination or LAPACK.

For antisymmetric Y and t > 0, det(sqrt(t) I + Y) equals the product of
sqrt(t + s_i^2) over the singular values of Y, so it is strictly positive.
Up to order SMALL_ORDER the batch kernels factor by Gaussian elimination
without pivoting, a few ufunc calls per step over the batch axis: the
symmetric part of sqrt(t) I + Y is sqrt(t) I, positive definite, so every
pivot is positive in exact arithmetic, and the growth is bounded in terms
of ||Y|| / sqrt(t) (Golub and Van Loan, "Unsymmetric positive definite
linear systems", LAA 1979; Higham, Accuracy and Stability of Numerical
Algorithms, 10.4). A matrix past GROWTH_CAP, and every larger order, goes
to np.linalg.slogdet instead. A pivot or a sign that is not positive, or an
overflow, comes back as a log-determinant that is not finite, and the
kernels never raise: the estimator checks each batch, and the scalar
helpers their one value. The bipartite block form [[0, U], [-U^T, 0]]
reduces to the m-by-m Gram matrix U U^T, which is symmetric positive
definite once shifted by t I. A skew-tridiagonal sqrt(t) I + T needs no
matrix: its determinant is a continuant, a product of positive ratios
(chain_logdet_batch). Every kernel takes t > 0, where each determinant is
positive; the scalar helpers check it.

The batch kernels take a batch axis (the chain's last, every other's
first) so Monte Carlo callers factor thousands of samples per numpy call;
the scalar helpers wrap them. Every value is a function of its own matrix
alone: neither the batch size nor the memory layout of the stack moves a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SMALL_ORDER = 12  # at most this order (N on the dense route, m on the Gram route): elimination
GROWTH_CAP = 1e3  # dense elimination only where ||Y||_F^2 <= GROWTH_CAP * t


class NonPositiveDeterminantError(ArithmeticError):
    """A determinant that is positive in exact arithmetic came out non-positive or non-finite."""


@dataclass(frozen=True, eq=False)
class SkewSample:
    """One realization of the randomized antisymmetric matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.array_equal(m, -m.T):
            raise ValueError("matrix is not exactly antisymmetric")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BipartiteSample:
    """One realization of the rectangular bipartite factor (m <= n)."""

    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        if self.matrix.shape[0] > self.matrix.shape[1]:
            raise ValueError("expected m <= n")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def bipartite_block(u: BipartiteSample) -> SkewSample:
    """Embed the rectangular factor as the full (m+n) antisymmetric matrix."""
    m, n = u.m, u.n
    y = np.zeros((m + n, m + n))
    y[:m, m:] = u.matrix
    y[m:, :m] = -u.matrix.T
    return SkewSample(y)


def _positive_logdet(mats: np.ndarray) -> np.ndarray:
    """log det over a (B, k, k) stack, nan where slogdet's sign is not +1."""
    with np.errstate(invalid="ignore"):  # a nan comes back as one; the caller checks it
        sign, logabs = np.linalg.slogdet(mats)
    return np.where(sign == 1.0, logabs, np.nan)


def _eliminated_logdet(a: np.ndarray) -> np.ndarray:
    """log det over an (n, n, B) C-contiguous stack by elimination without pivoting, in place.

    Each step updates the trailing rows with ufunc calls over contiguous length-B
    vectors; the log-determinant sums the pivots' logs in row order. A pivot that
    is not positive, or an overflow, leaves a sum that is not finite.
    """
    n = len(a)
    tmp = np.empty(a.shape[1:])
    with np.errstate(all="ignore"):  # every overflow or nan reaches the sum
        for k in range(n - 1):
            for i in range(k + 1, n):
                lk = np.divide(a[i, k], a[k, k], out=tmp[0])
                a[i, k + 1 :] -= np.multiply(lk, a[k, k + 1 :], out=tmp[1 : n - k])
        np.copyto(tmp, _diagonal(a))  # contiguous: np.log takes the same path at any B
        total = np.zeros(a.shape[2])
        for row in np.log(tmp, out=tmp):  # in row order: the sum's bits depend on no other sample
            total += row
    return total


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The (n, B) view of the diagonal of an (n, n, B) C-contiguous stack."""
    return a.reshape(len(a) ** 2, a.shape[2])[:: len(a) + 1]


def skew_logdet_batch(y_batch: np.ndarray, t: float) -> np.ndarray:
    """Batched log det(sqrt(t) I + Y) over a (B, N, N) stack of antisymmetric Y, at t > 0.

    A determinant that is not positive and finite comes back as a value that is
    not finite; y_batch may be overwritten. Up to order
    SMALL_ORDER a matrix with ||Y||_F^2 <= GROWTH_CAP * t is eliminated
    without pivoting, fastest when y_batch is a view of an (N, N, B)
    C-contiguous array; any other goes to slogdet.
    """
    b, n = y_batch.shape[:2]
    if n > SMALL_ORDER:
        y_batch[:, np.arange(n), np.arange(n)] = math.sqrt(t)
        return _positive_logdet(y_batch)
    a = np.ascontiguousarray(y_batch.transpose(1, 2, 0))  # (N, N, B): a view when it already is
    norm2, square = np.zeros(b), np.empty(b)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the matrix goes to slogdet
        for i, j in zip(*np.triu_indices(n, 1)):  # row-major, so a norm depends on no other sample
            norm2 += np.multiply(a[i, j], a[i, j], out=square)
        fits = 2.0 * norm2 <= GROWTH_CAP * t  # ||Y||_F^2 is twice the upper triangle's
    _diagonal(a)[:] = math.sqrt(t)
    if fits.all():
        return _eliminated_logdet(a)
    values = np.empty(b)
    far, near = np.flatnonzero(~fits), np.flatnonzero(fits)
    values[far] = _positive_logdet(a[:, :, far].transpose(2, 0, 1))
    values[near] = _eliminated_logdet(a[:, :, near])
    return values


def gram_logdet_batch(u_batch: np.ndarray, t: float) -> np.ndarray:
    """Batched log det of the embedded block samples of a (B, m, n) stack, m <= n, at t > 0.

    This is log det(t I_m + U U^T) plus ((n - m)/2) log t, not finite where
    it fails as in skew_logdet_batch. Up to m = SMALL_ORDER, U U^T is summed
    over the n columns in order and eliminated without pivoting (it is
    positive definite), fastest when u_batch is a view of an (m, n, B)
    C-contiguous array. u_batch is not changed.
    """
    b, m, n = u_batch.shape
    if m > SMALL_ORDER:
        u = np.ascontiguousarray(u_batch)  # matmul's summation order depends on the layout
        gram = u @ u.transpose(0, 2, 1)
        gram[:, np.arange(m), np.arange(m)] += t
        return _positive_logdet(gram) + 0.5 * (n - m) * math.log(t)
    u = u_batch.transpose(1, 2, 0)  # (m, n, B)
    gram, term = np.zeros((m, m, b)), np.empty((m, m, b))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches the value
        for k in range(n):  # one multiply-add per column, in order, for every sample alike
            gram += np.multiply(u[:, None, k], u[None, :, k], out=term)
        _diagonal(gram)[:] += t
    return _eliminated_logdet(gram) + 0.5 * (n - m) * math.log(t)


def chain_logdet_batch(c2: np.ndarray, t: float, order: int) -> np.ndarray:
    """Batched log det(sqrt(t) I + T) over an (L, B) stack of the squared off-diagonals
    c_1^2 .. c_L^2 of skew-tridiagonal T, plus ((order - L - 1)/2) log t, at t > 0.

    det is the product of rho_1 = sqrt(t) and rho_k = sqrt(t) + c_(k-1)^2 / rho_(k-1), the
    continuant's ratios: every term is positive, so nothing cancels at small t, and each
    rho_k lies in [sqrt(t), sqrt(t) + max c^2 / sqrt(t)]. The logs add in row order, so a
    value depends on its own column alone; one that is not finite comes back as such.
    """
    root = math.sqrt(t)
    rho = np.empty((len(c2) + 1, c2.shape[1]))
    rho[0] = root
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches the value
        for k, row in enumerate(c2):
            np.divide(row, rho[k], out=rho[k + 1])
            rho[k + 1] += root
        total = np.full(c2.shape[1], 0.5 * (order - len(rho)) * math.log(t))
        for row in np.log(rho, out=rho):
            total += row
    return total


def log_det_shifted(y: SkewSample, t: float) -> float:
    """log det(sqrt(t) I + Y) for an antisymmetric sample Y and t > 0, at least (N/2) log t."""
    if not t > 0:
        raise ValueError("t must be positive")
    return _checked(skew_logdet_batch(y.matrix[None, :, :].copy(), t)[0])


def log_det_bipartite(u: BipartiteSample, t: float) -> float:
    """log det of the embedded block sample by the Gram route.

    Equals ((n - m)/2) log t plus sum_i log(t + s_i^2) over the singular
    values s_i of U, for t > 0.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    return _checked(gram_logdet_batch(u.matrix[None, :, :], t)[0])


def _checked(value: float) -> float:
    """A scalar helper's log-determinant, which must be finite."""
    if not math.isfinite(value):
        raise NonPositiveDeterminantError(
            f"log det {value} where a positive finite determinant is guaranteed"
        )
    return float(value)
