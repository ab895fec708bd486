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
to np.linalg.slogdet instead. A pivot or a sign that is not positive, or a
value that is not finite, is the numerical health check. The bipartite
block form [[0, U], [-U^T, 0]] reduces to the m-by-m Gram matrix U U^T,
which is symmetric positive definite once shifted by t I. Every kernel
takes t > 0, where each determinant is positive; the scalar helpers check it.

The batch kernels take a leading batch axis so Monte Carlo callers factor
thousands of samples per numpy call; the scalar helpers wrap them. Every
value is a function of its own matrix alone: neither the batch size nor
the memory layout of the stack moves a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SMALL_ORDER = 12  # at most this order (N on the dense route, m on the Gram route): elimination
GROWTH_CAP = 1e3  # dense elimination only where ||Y||_F^2 <= GROWTH_CAP * t


class NonPositiveDeterminantError(ArithmeticError):
    """A determinant that is positive in exact arithmetic came out non-positive or non-finite.

    Where a batch kernel raised it, index is the position in its batch of the sample
    named, and detail the message past that position.
    """

    index: int | None = None
    detail: str = ""


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


def _require_positive(bad: np.ndarray, detail, rows: np.ndarray | None = None) -> None:
    """Raise NonPositiveDeterminantError naming the first flagged sample, if any.

    rows maps a flagged position to the sample's index in the caller's batch.
    """
    hit = np.flatnonzero(bad)
    if hit.size:
        i = int(hit[0])
        index = i if rows is None else int(rows[i])
        text = f"{detail(i)} where a positive finite determinant is guaranteed"
        err = NonPositiveDeterminantError(f"sample {index} of the batch: {text}")
        err.index, err.detail = index, text
        raise err


def _positive_logdet(mats: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """log det over a (B, k, k) stack whose determinants are positive in exact arithmetic."""
    sign, logabs = np.linalg.slogdet(mats)
    _require_positive(
        (sign != 1.0) | ~np.isfinite(logabs),
        lambda i: f"determinant sign {sign[i]:+.0f}, log|det| {logabs[i]:.17g}",
        rows,
    )
    return logabs


def _eliminated_logdet(a: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """log det over an (n, n, B) C-contiguous stack by elimination without pivoting, in place.

    Each step updates the trailing rows with ufunc calls over contiguous length-B
    vectors; the log-determinant sums the pivots' logs in row order. Where every
    pivot is positive in exact arithmetic, a sum that is not finite (a pivot that
    is not positive, or an overflow) raises NonPositiveDeterminantError.
    """
    n = len(a)
    tmp = np.empty(a.shape[1:])
    pivots = _diagonal(a)
    with np.errstate(all="ignore"):  # the health check below sees every overflow or nan
        for k in range(n - 1):
            for i in range(k + 1, n):
                lk = np.divide(a[i, k], a[k, k], out=tmp[0])
                a[i, k + 1 :] -= np.multiply(lk, a[k, k + 1 :], out=tmp[1 : n - k])
        np.copyto(tmp, pivots)  # contiguous: np.log takes the same path at any B
        total = np.zeros(a.shape[2])
        for row in np.log(tmp, out=tmp):  # in row order: the sum's bits depend on no other sample
            total += row
    _require_positive(
        ~np.isfinite(total),
        lambda i: f"smallest pivot {pivots[:, i].min():.17g}, log det {total[i]:.17g}",
        rows,
    )
    return total


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The (n, B) view of the diagonal of an (n, n, B) C-contiguous stack."""
    return a.reshape(len(a) ** 2, a.shape[2])[:: len(a) + 1]


def skew_logdet_batch(y_batch: np.ndarray, t: float) -> np.ndarray:
    """Batched log det(sqrt(t) I + Y) over a (B, N, N) stack of antisymmetric Y, at t > 0.

    A determinant that is not positive and finite raises
    NonPositiveDeterminantError; y_batch may be overwritten. Up to order
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
    values[far] = _positive_logdet(a[:, :, far].transpose(2, 0, 1), far)
    values[near] = _eliminated_logdet(a[:, :, near], near)
    return values


def gram_logdet_batch(u_batch: np.ndarray, t: float) -> np.ndarray:
    """Batched log det of the embedded block samples of a (B, m, n) stack, m <= n, at t > 0.

    This is log det(t I_m + U U^T) plus ((n - m)/2) log t, checked as in
    skew_logdet_batch. Up to m = SMALL_ORDER, U U^T is summed over the n
    columns in order and eliminated without pivoting (it is positive
    definite), fastest when u_batch is a view of an (m, n, B) C-contiguous
    array. u_batch is not changed.
    """
    b, m, n = u_batch.shape
    if m > SMALL_ORDER:
        u = np.ascontiguousarray(u_batch)  # matmul's summation order depends on the layout
        gram = u @ u.transpose(0, 2, 1)
        gram[:, np.arange(m), np.arange(m)] += t
        return _positive_logdet(gram) + 0.5 * (n - m) * math.log(t)
    u = u_batch.transpose(1, 2, 0)  # (m, n, B)
    gram, term = np.zeros((m, m, b)), np.empty((m, m, b))
    with np.errstate(over="ignore", invalid="ignore"):  # the health check sees an overflow
        for k in range(n):  # one multiply-add per column, in order, for every sample alike
            gram += np.multiply(u[:, None, k], u[None, :, k], out=term)
        _diagonal(gram)[:] += t
    return _eliminated_logdet(gram) + 0.5 * (n - m) * math.log(t)


def log_det_shifted(y: SkewSample, t: float) -> float:
    """log det(sqrt(t) I + Y) for an antisymmetric sample Y and t > 0, at least (N/2) log t."""
    if not t > 0:
        raise ValueError("t must be positive")
    return float(skew_logdet_batch(y.matrix[None, :, :].copy(), t)[0])


def log_det_bipartite(u: BipartiteSample, t: float) -> float:
    """log det of the embedded block sample by the Gram route.

    Equals ((n - m)/2) log t plus sum_i log(t + s_i^2) over the singular
    values s_i of U, for t > 0.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    return float(gram_logdet_batch(u.matrix[None, :, :], t)[0])
