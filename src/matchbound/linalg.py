"""Log-determinants of shifted skew-symmetric matrices, by LAPACK.

For antisymmetric Y and t > 0, det(sqrt(t) I + Y) equals the product of
sqrt(t + s_i^2) over the singular values of Y, so it is strictly positive;
np.linalg.slogdet computes it and the +1 sign is checked as a numerical
health check. At t = 0 the determinant is the product of the singular
values themselves, computed by np.linalg.svd, and a sample whose smallest
singular value is at most N * eps times its largest counts as singular.
The bipartite block form [[0, U], [-U^T, 0]] reduces to the m-by-m Gram
matrix U U^T at t > 0 and to the singular values of U at t = 0.

The batch kernels take a leading batch axis so Monte Carlo callers factor
thousands of samples per numpy call; the scalar helpers wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


class NonPositiveDeterminantError(ArithmeticError):
    """A determinant that is positive in exact arithmetic came out non-positive or non-finite."""


class SingularAtZeroError(ArithmeticError):
    """A t = 0 sample is (numerically) singular."""


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
    """log det over a (B, k, k) stack whose determinants are positive in exact arithmetic."""
    sign, logabs = np.linalg.slogdet(mats)
    bad = np.flatnonzero((sign != 1.0) | ~np.isfinite(logabs))
    if bad.size:
        i = int(bad[0])
        raise NonPositiveDeterminantError(
            f"sample {i} of the batch: determinant sign {sign[i]:+.0f}, log|det| {logabs[i]:.17g}"
            " where a positive finite determinant is guaranteed"
        )
    return logabs


def _logabsdet_at_zero(mats: np.ndarray, order: int):
    """log|det| over a (B, k, k) stack from its singular values, plus a singular mask.

    order is the dimension N of the antisymmetric matrix the stack stands
    for: a sample is singular (value -inf) when s_min <= N * eps * s_max.
    """
    s = np.linalg.svd(mats, compute_uv=False)
    # min/max with an initial value also cover k = 0 (empty product, never singular)
    singular = s.min(axis=-1, initial=np.inf) <= order * _EPS * s.max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):
        logabs = np.log(s).sum(axis=-1)
    logabs[singular] = -np.inf
    return logabs, singular


def skew_logdet_batch(y_batch: np.ndarray, t: float):
    """Batched log det(sqrt(t) I + Y) over a (B, N, N) stack of antisymmetric Y.

    Returns (values, singular): at t = 0 singular samples are flagged
    (value -inf) instead of raising; at t > 0 none is, and a determinant
    that is not positive and finite raises NonPositiveDeterminantError.
    At t > 0 the diagonal of y_batch is overwritten with sqrt(t).
    """
    b, n, _ = y_batch.shape
    if t == 0:
        return _logabsdet_at_zero(y_batch, n)
    y_batch[:, np.arange(n), np.arange(n)] = math.sqrt(t)
    return _positive_logdet(y_batch), np.zeros(b, dtype=bool)


def gram_logdet_batch(u_batch: np.ndarray, t: float):
    """Batched log det of the embedded block samples of a (B, m, n) stack, m <= n.

    At t > 0 this is log det(t I_m + U U^T) plus ((n - m)/2) log t; at
    t = 0 it is 2 log|det U|, taken from the singular values of U rather
    than of U U^T, whose condition number is squared. Returns (values,
    singular) as skew_logdet_batch does; at t = 0 every rectangular
    sample is singular.
    """
    b, m, n = u_batch.shape
    if t == 0:
        if m != n:
            # the t^((n-m)/2) factor is identically zero
            return np.full(b, -np.inf), np.ones(b, dtype=bool)
        logabs, singular = _logabsdet_at_zero(u_batch, m + n)
        return 2.0 * logabs, singular
    gram = u_batch @ u_batch.transpose(0, 2, 1)
    gram[:, np.arange(m), np.arange(m)] += t
    return _positive_logdet(gram) + 0.5 * (n - m) * math.log(t), np.zeros(b, dtype=bool)


def log_det_shifted(y: SkewSample, t: float) -> float:
    """log det(sqrt(t) I + Y) for an antisymmetric sample Y.

    The value is bounded below by (N/2) log t for t > 0. t = 0 is legal
    only for even N; there a singular sample (s_min <= N * eps * s_max)
    raises SingularAtZeroError.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 and y.dimension % 2 == 1:
        raise ValueError("t = 0 requires an even dimension (determinant is identically 0)")
    values, singular = skew_logdet_batch(y.matrix[None, :, :].copy(), t)
    if singular[0]:
        raise SingularAtZeroError("singular sample at t = 0")
    return float(values[0])


def log_det_bipartite(u: BipartiteSample, t: float) -> float:
    """log det of the embedded block sample by the Gram route.

    Equals ((n - m)/2) log t plus sum_i log(t + s_i^2) over the singular
    values s_i of U. t = 0 requires m = n and a nonsingular U (else
    SingularAtZeroError).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 and u.m != u.n:
        raise ValueError("t = 0 requires m = n (determinant is identically 0)")
    values, singular = gram_logdet_batch(u.matrix[None, :, :], t)
    if singular[0]:
        raise SingularAtZeroError("singular bipartite sample at t = 0")
    return float(values[0])
