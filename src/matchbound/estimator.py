"""Monte Carlo estimation of the log-determinant average and its bounds.

Each sample index owns a counter-based substream: the 64-bit seed and the
index pass through the splitmix64 avalanche, and every uniform is again a
pure function of (substream key, position). Normals come from Box-Muller
on fixed uniform pairs, so draws are random access - no generator state,
identical results for any batching, thread count, or evaluation order.

The geometric mean of det(sqrt(t) I + Y) over samples estimates
exp(E log det), which lower-bounds the matching polynomial value (times
sqrt(t) when the vertex count is odd). The arithmetic mean of the same
determinants is the unbiased estimator of the polynomial itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import Bipartition, SkewAdjacency, WeightedGraph, bipartition, skew_adjacency
from .linalg import NonPositiveDeterminantError, SkewSample, gram_logdet_batch, skew_logdet_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BATCH = 4096  # fixed batch partition; independent of thread count


class EstimatorError(RuntimeError):
    """Estimation could not produce a value (for example, all samples singular)."""


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for an indexed subtask."""
    idx = np.array([index], dtype=np.uint64)  # array ops wrap mod 2^64 silently
    key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * _GOLDEN)
    return int(key[0])


def _uniform_block(seed: int, first_stream: int, n_streams: int, n_uniforms: int) -> np.ndarray:
    """(n_streams, n_uniforms) array of uniforms in (0, 1), counter-addressed."""
    idx = np.arange(first_stream, first_stream + n_streams, dtype=np.uint64)
    keys = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * _GOLDEN)
    pos = (np.arange(n_uniforms, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    bits = _mix64(keys[:, None] + pos[None, :])
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _normal_block(seed: int, first_stream: int, n_streams: int, n_normals: int) -> np.ndarray:
    """(n_streams, n_normals) standard normals, two uniforms per Box-Muller pair."""
    pairs = (n_normals + 1) // 2
    u = _uniform_block(seed, first_stream, n_streams, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = (2.0 * math.pi) * u[:, 1::2]
    z = np.empty((n_streams, 2 * pairs))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z[:, :n_normals]


@dataclass(frozen=True)
class RngStream:
    """Addressable normal-variate source: substream i is a function of (seed, i)."""

    seed: int
    stream_index: int = 0

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, i)

    def normals(self, count: int) -> np.ndarray:
        return _normal_block(self.seed, self.stream_index, 1, count)[0]

    def uniforms(self, count: int) -> np.ndarray:
        return _uniform_block(self.seed, self.stream_index, 1, count)[0]


@dataclass(frozen=True, eq=False)
class _SamplePlan:
    """How a batch of draws becomes matrices, fixed once per graph.

    Every sample draws one normal per unordered vertex pair, row-major
    (n_pairs of them), and its matrix is coef * z[index]: coef is the
    signed skew template on rows x cols, index the pair of each entry.
    The dense route takes every vertex on both axes; the Gram route takes
    left x right of a bipartition, the same sample with its vertices
    reordered, and factors that off-diagonal block.
    """

    dense: bool
    coef: np.ndarray
    index: np.ndarray
    n_pairs: int


def _sample_plan(adj: SkewAdjacency, bip: Bipartition | None) -> _SamplePlan:
    n = adj.dimension
    if bip is None:
        rows = cols = np.arange(n)
    else:
        rows, cols = np.array(bip.left, dtype=np.intp), np.array(bip.right, dtype=np.intp)
    i, j = np.minimum.outer(rows, cols), np.maximum.outer(rows, cols)
    # a diagonal entry (i == j) indexes some pair when N > 1; its coef is 0
    index = i * n - i * (i + 1) // 2 + (j - i - 1)
    return _SamplePlan(bip is None, adj.matrix[np.ix_(rows, cols)], index, n * (n - 1) // 2)


def _matrices(plan: _SamplePlan, z: np.ndarray) -> np.ndarray:
    """The (count, rows, cols) stack coef * z[index], one sample per row of z."""
    # on the Gram route advanced indexing leaves the batch axis innermost,
    # which fixes the summation order of U U^T (np.take would change its last
    # bits); the dense stack is gathered by np.take, in C order
    mats = np.take(z, plan.index, axis=1) if plan.dense else z[:, plan.index]
    mats *= plan.coef
    if plan.dense:
        # 0 * z is -0.0 where z < 0, and the t = 0 SVD sees that sign
        diag = np.arange(mats.shape[1])
        mats[:, diag, diag] = 0.0
    return mats


def sample_skew(adj: SkewAdjacency, stream: RngStream, i: int) -> SkewSample:
    """Draw sample i exactly as the estimator's batches draw it, as the N x N matrix."""
    if adj.dimension == 1:
        return SkewSample(np.zeros((1, 1)))  # no vertex pair, nothing to draw
    plan = _sample_plan(adj, None)
    return SkewSample(_matrices(plan, _normal_block(stream.seed, i, 1, plan.n_pairs))[0])


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Per-sample log-determinants and their mean.

    per_sample holds the non-singular draws in sample-index order; failures
    counts singular draws (possible only at t = 0, where matchbound.linalg
    calls a draw singular when s_min <= N * eps * s_max). mean_log estimates
    E log det(sqrt(t) I + Y); exp(mean_log) is the certified lower-bound
    quantity, while mean_det estimates the polynomial value itself (times
    sqrt(t) at odd N). mean_det and std_err_det are inf where they exceed
    the largest double; log_mean_det is always finite.
    """

    k: int
    t: float
    seed: int
    per_sample: np.ndarray
    mean_log: float
    std_err: float
    failures: int
    max_abs_variate: float  # diagnostic: largest |normal| consumed

    def _scaled_dets(self) -> tuple[float, np.ndarray]:
        """The largest log-determinant and every determinant divided by its exp."""
        top = float(self.per_sample.max())
        return top, np.exp(self.per_sample - top)

    @property
    def log_mean_det(self) -> float:
        """log mean_det by max-shifted log-sum-exp: finite whatever the weights."""
        top, scaled = self._scaled_dets()
        return top + math.log(scaled.mean())

    @property
    def mean_det(self) -> float:
        return _exp(self.log_mean_det)

    @property
    def log_std_err_det(self) -> float:
        """log std_err_det, from the same shift; -inf when there is no spread."""
        if len(self.per_sample) < 2:
            return -math.inf
        top, scaled = self._scaled_dets()
        spread = float(scaled.std(ddof=1))
        if spread == 0.0:
            return -math.inf
        return top + math.log(spread / math.sqrt(len(scaled)))

    @property
    def std_err_det(self) -> float:
        return _exp(self.log_std_err_det)


def _exp(x: float) -> float:
    """e^x, or inf where that exceeds the largest double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class FprasPlan:
    """Sample budget achieving relative error epsilon with confidence 1 - delta."""

    epsilon: float
    delta: float
    deviation_radius: float  # epsilon / (2N)
    samples: int
    predicted_cost: float  # samples * N^3 flop proxy


@dataclass(frozen=True)
class BoundsReport:
    """Certified additive bracket around the log of the matching polynomial.

    The averaged log-determinant brackets the log of the determinant mean,
    which is the polynomial value times sqrt(t) when the vertex count is
    odd; lower_log therefore subtracts log(t)/2 for odd N so that the
    bracket always refers to the polynomial itself. upper_log applies the
    smaller of the two defensible gaps. The Monte Carlo standard error is
    deliberately not folded in and must be read from the estimate.
    """

    lower_log: float
    gap_asymptotic: float
    gap_finite_sample: float
    upper_log: float
    per_vertex_gap: float


def plan_samples(
    epsilon: float, delta: float, n_vertices: int, amplitude: float, t: float
) -> FprasPlan:
    """Sample count ceil(8 a^2 N log(4/delta) / (t eps^2)), radius eps/(2N).

    With these choices the tail bound puts the geometric-mean estimate
    within a multiplicative (1 +- epsilon) of its target with probability
    at least 1 - delta/2.
    """
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must be in (0, 1]")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    if n_vertices < 1:
        raise ValueError("n_vertices must be at least 1")
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    if not t > 0:
        raise ValueError("t must be positive")
    k = math.ceil(8.0 * amplitude**2 * n_vertices * math.log(4.0 / delta) / (t * epsilon**2))
    return FprasPlan(
        epsilon=epsilon,
        delta=delta,
        deviation_radius=epsilon / (2.0 * n_vertices),
        samples=max(1, k),
        predicted_cost=float(k) * float(n_vertices) ** 3,
    )


def tail_bound(r: float, n_vertices: int, k: int, amplitude: float, t: float) -> float:
    """Deviation probability bound 2 exp(-t k N r^2 / (2 a^2)).

    Bounds Pr(|mean of k log-determinants - its expectation| >= N r). The
    2 a^2 denominator already uses the sharper sub-Gaussian constant
    available because the randomized matrix is purely imaginary after
    multiplication by i.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not t > 0:
        raise ValueError("t must be positive")
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    if k < 1 or n_vertices < 1:
        raise ValueError("k and n_vertices must be at least 1")
    return 2.0 * math.exp(-t * k * n_vertices * r**2 / (2.0 * amplitude**2))


def bounds_report(
    est: EstimateResult, amplitude: float, n_vertices: int, t: float, c1: float
) -> BoundsReport:
    """Assemble the additive bracket from an estimate.

    gap_asymptotic = N min(a^2 / 2t, c1) always holds; the finite-sample
    gap log1p(sqrt(8kN) a exp(a^2 k N / 2t) / sqrt(pi t)) / k is computed
    in softplus form and saturates to the asymptotic gap once the exponent
    passes 700 (where it is the weaker bound anyway).
    """
    n = n_vertices
    a = amplitude
    if n % 2 == 1 and t == 0:
        raise ValueError("odd vertex counts are not defined at t = 0")
    if a == 0.0:
        gap_asym = 0.0
        gap_fin = 0.0
    elif t == 0:
        gap_asym = n * c1
        gap_fin = gap_asym
    else:
        gap_asym = n * min(a**2 / (2.0 * t), c1)
        k = est.k
        exponent = a**2 * k * n / (2.0 * t)
        if exponent > 700.0:
            gap_fin = gap_asym
        else:
            x = exponent + math.log(math.sqrt(8.0 * k * n) * a / math.sqrt(math.pi * t))
            softplus = x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))
            gap_fin = min(softplus / k, gap_asym)
    gap = min(gap_asym, gap_fin)
    # the determinant mean carries a sqrt(t) factor at odd N; shift the
    # bracket so it bounds the polynomial value, not the determinant mean
    parity_shift = 0.5 * math.log(t) if n % 2 == 1 else 0.0
    lower = est.mean_log - parity_shift
    return BoundsReport(
        lower_log=lower,
        gap_asymptotic=gap_asym,
        gap_finite_sample=gap_fin,
        upper_log=lower + gap,
        per_vertex_gap=gap / n,
    )


def estimate_log_phi_tilde(
    g: WeightedGraph,
    t: float,
    k: int,
    seed: int,
    *,
    threads: int | None = None,
) -> EstimateResult:
    """Average log det(sqrt(t) I + Y) over k independent samples.

    A graph with a bipartition takes the Gram-matrix route (an edgeless
    graph with m = 0); any other graph takes the dense antisymmetric
    factorization. Results are bitwise independent of the thread count.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 and g.n_vertices % 2 == 1:
        raise ValueError("t = 0 requires an even vertex count")

    plan = _sample_plan(skew_adjacency(g), bipartition(g))
    starts = list(range(0, k, _BATCH))

    def run(start: int):
        z = _normal_block(seed, start, min(_BATCH, k - start), plan.n_pairs)
        kernel = skew_logdet_batch if plan.dense else gram_logdet_batch
        try:
            values, singular = kernel(_matrices(plan, z), t)
        except NonPositiveDeterminantError as exc:
            raise NonPositiveDeterminantError(f"batch from sample {start}, {exc}") from None
        return values, singular, float(np.abs(z).max()) if z.size else 0.0

    if threads is not None and threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, starts))
    else:
        chunks = [run(s) for s in starts]

    values = np.concatenate([c[0] for c in chunks])
    singular = np.concatenate([c[1] for c in chunks])
    max_abs = max(c[2] for c in chunks)

    per_sample = values[~singular]
    failures = int(singular.sum())
    if len(per_sample) == 0:
        raise EstimatorError(f"all {k} samples were singular at t = {t}")
    if np.all(per_sample == per_sample[0]):
        # degenerate draw (edgeless graph): the mean is exact, spread is zero
        mean_log = float(per_sample[0])
        std_err = 0.0
    else:
        # fsum keeps the reduction exact, hence independent of batching order
        mean_log = math.fsum(per_sample.tolist()) / len(per_sample)
        dev = per_sample - mean_log
        var = math.fsum((dev * dev).tolist()) / (len(per_sample) - 1)
        std_err = math.sqrt(var / len(per_sample))
    return EstimateResult(
        k=k,
        t=t,
        seed=seed,
        per_sample=per_sample,
        mean_log=mean_log,
        std_err=std_err,
        failures=failures,
        max_abs_variate=max_abs,
    )
