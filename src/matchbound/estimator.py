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
from fractions import Fraction

import numpy as np

from .graphs import SkewAdjacency, WeightedGraph, components, skew_adjacency
from .linalg import NonPositiveDeterminantError, SkewSample, gram_logdet_batch, skew_logdet_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BATCH = 4096  # fixed batch partition; independent of thread count
_CHUNK = 1 << 16  # pair blocks generated at once: the working buffers stay cache-sized
_SUM_CHUNK = 1 << 16  # values per exact sum: each binade's partial sums stay below 2^44
_LN2 = math.log(2.0)


class EstimatorError(RuntimeError):
    """Estimation could not produce a value (for example, all samples singular)."""


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on z; tmp is a work buffer of z's shape."""
    for shift, mult in ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _stream_keys(seed: int, idx: np.ndarray) -> np.ndarray:
    """The substream key of each uint64 stream index."""
    keys = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * _GOLDEN
    return _mix64(keys, np.empty_like(keys))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for an indexed subtask."""
    return int(_stream_keys(seed, np.array([index], dtype=np.uint64))[0])  # wraps mod 2^64


def _uniforms(keys, steps, out, bits, tmp) -> np.ndarray:
    """out[i, j] = the top 53 bits of splitmix64(keys[i] + steps[j]), centred, in (0, 1)."""
    np.add(keys[:, None], steps, out=bits)
    np.right_shift(_mix64(bits, tmp), np.uint64(11), out=bits)
    np.add(bits, 0.5, out=out)
    out *= 2.0**-53
    return out


def _normal_block(seed: int, first_stream: int, n_streams: int, blocks: np.ndarray) -> np.ndarray:
    """(n_streams, 2 len(blocks)) standard normals, by Box-Muller on each block's uniforms.

    Normal p of a stream lies in block p // 2; its bits do not depend on the other blocks,
    so the rows are made a chunk at a time in a few reused buffers.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    radius_at, angle_at = ((2 * blocks + np.uint64(j)) * _GOLDEN for j in (1, 2))
    keys = _stream_keys(seed, np.arange(first_stream, first_stream + n_streams, dtype=np.uint64))
    z = np.empty((n_streams, 2 * len(blocks)))
    rows = max(1, _CHUNK // max(1, len(blocks)))
    bits, tmp = np.empty((2, min(rows, n_streams), len(blocks)), dtype=np.uint64)
    radius, angle, trig = np.empty((3, min(rows, n_streams), len(blocks)))
    for lo in range(0, n_streams, rows):
        chunk, n = keys[lo : lo + rows], min(rows, n_streams - lo)
        r = _uniforms(chunk, radius_at, radius[:n], bits[:n], tmp[:n])
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        a = _uniforms(chunk, angle_at, angle[:n], bits[:n], tmp[:n])
        a *= 2.0 * math.pi
        np.multiply(r, np.cos(a, out=trig[:n]), out=z[lo : lo + n, 0::2])
        np.multiply(r, np.sin(a, out=trig[:n]), out=z[lo : lo + n, 1::2])
    return z


@dataclass(frozen=True)
class RngStream:
    """Addressable normal-variate source: substream i is a function of (seed, i)."""

    seed: int
    stream_index: int = 0

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, i)

    def normals(self, count: int) -> np.ndarray:
        return _normal_block(self.seed, self.stream_index, 1, np.arange(count // 2 + 1))[0, :count]

    def uniforms(self, count: int) -> np.ndarray:
        keys = _stream_keys(self.seed, np.array([self.stream_index], dtype=np.uint64))
        steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN  # positions 1 to count
        return _uniforms(keys, steps, np.empty((1, count)), *np.empty((2, 1, count), np.uint64))[0]


@dataclass(frozen=True, eq=False)
class _Stack:
    """Connected components of one route and shape, factored as one stack.

    Member c of a sample is coef[c] * z[index[c]]: the signed skew template
    on the component's rows x cols (all its vertices on the dense route,
    left x right on the Gram route) times each entry's drawn normal.
    """

    dense: bool
    coef: np.ndarray
    index: np.ndarray


@dataclass(frozen=True, eq=False)
class _SamplePlan:
    """How a batch of draws becomes log-determinants, fixed once per graph.

    The stream holds one normal per vertex pair, row-major, two per block;
    only the blocks that hold an edge are drawn, and idle are the drawn
    columns that no edge uses. det of the block-diagonal sample is the
    product over components; each isolated vertex adds exactly (1/2) log t.
    """

    blocks: np.ndarray
    idle: np.ndarray
    stacks: tuple[_Stack, ...]
    isolated: int


def _sample_plan(g: WeightedGraph) -> _SamplePlan:
    adj, n = skew_adjacency(g), g.n_vertices
    i, j = np.nonzero(np.triu(adj.matrix))
    pair = i * n - i * (i + 1) // 2 + (j - i - 1)
    blocks = np.unique(pair // 2)
    col = np.zeros((n, n), dtype=np.intp)  # an entry off every edge reads column 0, times 0
    col[i, j] = col[j, i] = edges = 2 * np.searchsorted(blocks, pair // 2) + pair % 2
    groups: dict[tuple[bool, int, int], list] = {}
    for verts, bip in (comps := components(g)):
        rows, cols = (verts, verts) if bip is None else (bip.left, bip.right)
        groups.setdefault((bip is None, len(rows), len(cols)), []).append(np.ix_(rows, cols))
    stacks = tuple(
        _Stack(dense, np.stack([adj.matrix[c] for c in cells]), np.stack([col[c] for c in cells]))
        for (dense, _, _), cells in groups.items()
    )
    idle = np.setdiff1d(np.arange(2 * len(blocks)), edges)
    return _SamplePlan(blocks, idle, stacks, n - sum(len(v) for v, _ in comps))


def _matrices(stack: _Stack, z: np.ndarray, t: float) -> np.ndarray:
    """The (count * members, rows, cols) stack coef * z[index], sample-major."""
    # on the Gram route advanced indexing leaves the batch axis innermost,
    # which fixes the summation order of U U^T (np.take would change its last
    # bits); the dense stack is gathered by np.take, in C order
    mats = np.take(z, stack.index, axis=1) if stack.dense else z[:, stack.index]
    mats *= stack.coef
    if t == 0:  # the SVD sees the sign of 0 * z; -0.0 + 0.0 is +0.0
        mats += 0.0
    return mats.reshape(-1, *mats.shape[2:])


def sample_skew(adj: SkewAdjacency, stream: RngStream, i: int) -> SkewSample:
    """Sample i as the N x N matrix from every pair's normal, off-edge entries +0."""
    upper = np.triu_indices(adj.dimension, 1)
    y = np.zeros((adj.dimension, adj.dimension))
    y[upper] = adj.matrix[upper] * stream.substream(i).normals(len(upper[0])) + 0.0
    return SkewSample(y - y.T)


def _exact_total(x: np.ndarray, e=0) -> Fraction:
    """sum(x 2^e) exactly, for finite doubles x and integers e, by integer sums per binade.

    np.frexp gives x = m 2^p, |m| in [1/2, 1), and m 2^27 = h + l 2^-26 with integers
    |h| < 2^27, |l| < 2^26. bincount sums the h and l per binade of p + e: below 2^44 for
    _SUM_CHUNK terms, so exact in a double; 16 adjacent binades combine exactly in an
    int64. The total does not depend on the order of the terms; float() rounds it once.
    """
    total = Fraction(0)
    for lo in range(0, len(x), _SUM_CHUNK):
        mant, exp = np.frexp(x[lo : lo + _SUM_CHUNK])
        exp = exp + (e[lo : lo + _SUM_CHUNK] if np.ndim(e) else e)
        base = int(exp.min())
        exp -= base
        low, high = np.modf(mant * 2.0**27)  # l 2^-26 and h, whose sums both stay exact
        width = (int(exp.max()) + 42) // 16 * 16  # an h counts 26 binades above its own
        sums = np.bincount(exp, low, width) * 2.0**26
        sums[26:] += np.bincount(exp, high, width)[:-26]
        blocks = (sums.astype(np.int64).reshape(-1, 16) @ (1 << np.arange(16))).tolist()
        chunk, shift = sum(v << 16 * i for i, v in enumerate(blocks)), base - 53
        total += Fraction(chunk << max(shift, 0), 1 << max(-shift, 0))
    return total


def _exp_sums(v: np.ndarray) -> tuple[Fraction, Fraction]:
    """(sum e^v, sum e^2v) exactly, with e^v = f 2^n, n = floor(v / ln 2) and f rounded once.

    No term overflows or underflows. f^2 = g + err exactly (Dekker's product on
    Veltkamp's 26-bit halves of f), so the second sum is that of f^2 exactly.
    """
    n = np.floor(v / _LN2).astype(np.int64)
    f = np.exp(v - n * _LN2)
    hi = f * (2.0**27 + 1)
    hi -= hi - f
    lo = f - hi
    g = f * f
    err = lo * lo - ((g - hi * hi) - 2.0 * hi * lo)
    return _exact_total(f, n), _exact_total(np.concatenate([g, err]), np.concatenate([2 * n] * 2))


def _log(r: Fraction) -> float:
    """log r of a positive rational, normalized by bit length so that no part overflows."""
    a = r.numerator.bit_length() - r.denominator.bit_length()
    return math.log(r * Fraction(2) ** -a) + a * _LN2


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Per-sample log-determinants and their mean.

    per_sample holds the non-singular draws in sample-index order; failures
    counts singular draws (possible only at t = 0, where matchbound.linalg
    calls a draw singular when s_min <= N * eps * s_max). mean_log estimates
    E log det(sqrt(t) I + Y); exp(mean_log) is the certified lower-bound
    quantity, while mean_det estimates the polynomial value itself (times
    sqrt(t) at odd N), as the product over components of their mean
    determinants, unbiased as components draw disjoint normals; std_err_det
    is the delta method's, rel^2 = sum_C var_C / (k mean_C^2). Both are kept
    as logs, and are inf where they exceed the largest double.

    Every statistic comes from sums that are exact integer arithmetic per
    binade, rounded once, so neither the thread count nor the batch size
    moves a bit of any field. per_sample, 8 bytes a sample, is the only
    storage that grows with k.
    """

    k: int
    t: float
    seed: int
    per_sample: np.ndarray
    mean_log: float
    std_err: float
    failures: int
    max_abs_variate: float  # diagnostic: largest |normal| that enters a matrix
    log_mean_det: float
    log_std_err_det: float  # -inf when there is no spread

    @property
    def mean_det(self) -> float:
        return _exp(self.log_mean_det)

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


@dataclass(frozen=True)
class BoundsReport:
    """Certified additive bracket around the log of the matching polynomial.

    The averaged log-determinant brackets the log of the determinant mean,
    which is the polynomial value times sqrt(t) when the vertex count is
    odd; lower_log therefore subtracts log(t)/2 for odd N so that the
    bracket always refers to the polynomial itself; upper_log adds
    gap_asymptotic. The Monte Carlo standard error is deliberately not
    folded in and must be read from the estimate.
    """

    lower_log: float
    gap_asymptotic: float
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
    k = 8.0 * amplitude**2 * n_vertices * math.log(4.0 / delta) / (t * epsilon**2 or math.nan)
    if not k < math.inf:  # the count overflows, or t eps^2 underflows to 0
        raise ValueError(f"the planned sample count is not finite at eps {epsilon}, t {t}")
    return FprasPlan(
        epsilon=epsilon,
        delta=delta,
        deviation_radius=epsilon / (2.0 * n_vertices),
        samples=max(1, math.ceil(k)),
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
    """Assemble the additive bracket from an estimate: gap N min(a^2 / 2t, c1).

    The finite-sample gap log1p(sqrt(8kN) a exp(a^2 kN / 2t) / sqrt(pi t)) / k
    is never smaller, so it is not reported. With E = a^2 kN / 2t its log1p
    argument is 4 sqrt(E/pi) e^E, and e^-E + 4 sqrt(E/pi) >= 1 for E >= 0 (1
    at E = 0, increasing since e^E > sqrt(pi E) / 2), so the gap is at least
    log(e^E) / k = a^2 N / 2t >= N min(a^2 / 2t, c1).
    """
    n, a = n_vertices, amplitude
    if n % 2 == 1 and t == 0:
        raise ValueError("odd vertex counts are not defined at t = 0")
    if a == 0.0:
        gap = 0.0
    elif t == 0:
        gap = n * c1
    else:
        gap = n * min(a**2 / t / 2.0, c1)
    # the determinant mean carries a sqrt(t) factor at odd N; shift the
    # bracket so it bounds the polynomial value, not the determinant mean
    parity_shift = 0.5 * math.log(t) if n % 2 == 1 else 0.0
    lower = est.mean_log - parity_shift
    return BoundsReport(
        lower_log=lower,
        gap_asymptotic=gap,
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

    Each connected component takes its own route: the Gram-matrix route when
    it is bipartite, the dense antisymmetric factorization otherwise; a
    sample's value is the sum over components, in a fixed order. Results
    are bitwise independent of the thread count.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    if t == 0 and g.n_vertices % 2 == 1:
        raise ValueError("t = 0 requires an even vertex count")

    plan = _sample_plan(g)
    unmatchable = plan.isolated or any(  # a component that has no perfect matching
        s.coef.shape[1] != s.coef.shape[2] or (s.dense and s.coef.shape[2] % 2)
        for s in plan.stacks
    )
    if t == 0 and unmatchable:
        msg = "a component is odd or has unequal sides"
        raise EstimatorError(f"all {k} samples were singular at t = 0: {msg}")
    shift = plan.isolated * (0.5 * math.log(t)) if plan.isolated else 0.0  # isolated vertices

    def run(start: int):
        b = min(_BATCH, k - start)
        z = _normal_block(seed, start, b, plan.blocks)
        z[:, plan.idle] = 0.0  # they enter no matrix, so they leave max_abs_variate alone
        parts = [np.zeros((b, 0))]
        for s in plan.stacks:
            kernel = skew_logdet_batch if s.dense else gram_logdet_batch
            try:
                values = kernel(_matrices(s, z, t), t)
            except NonPositiveDeterminantError as exc:
                msg = f"batch from sample {start}, {len(s.coef)} components per sample: {exc}"
                raise NonPositiveDeterminantError(msg) from None
            parts.append(values.reshape(b, -1))
        per_comp = np.concatenate(parts, axis=1)
        total = sum(per_comp.T, np.full(b, shift))  # component by component, in plan order
        singular = total == -np.inf  # a singular component's value is -inf
        peak = max(float(z.max(initial=0.0)), -float(z.min(initial=0.0)))
        kept, values = per_comp[~singular], total[~singular]
        sums = np.array([_exp_sums(column) for column in kept.T], dtype=object).reshape(-1, 2).T
        return values, _exact_total(values), len(singular) - len(kept), sums, peak

    per_sample, count, sum_log, failures, sums, max_abs = np.empty(k), 0, 0, 0, 0, 0.0
    starts = range(0, k, _BATCH)
    with ThreadPoolExecutor(max_workers=threads or 1) as pool:
        batches = pool.map(run, starts) if threads and threads > 1 else map(run, starts)
        # every sum is exact, so neither the batch order nor the batch size can change it
        for values, exact, n_singular, batch_sums, peak in batches:
            per_sample[count : count + len(values)] = values
            count += len(values)
            sum_log += exact
            failures += n_singular
            sums = sums + batch_sums
            max_abs = max(max_abs, peak)

    per_sample = per_sample[:count]
    if count == 0:
        raise EstimatorError(f"all {k} samples were singular at t = {t}")
    if per_sample.min() == per_sample.max():
        # degenerate draw (edgeless graph): the mean is exact, spread is zero
        mean_log = float(per_sample[0])
        std_err = 0.0
    else:
        mean_log = float(sum_log) / count
        sum_sq = 0
        for lo in range(0, count, _SUM_CHUNK):
            dev = per_sample[lo : lo + _SUM_CHUNK] - mean_log
            dev *= dev
            sum_sq += _exact_total(dev)
        std_err = math.sqrt(float(sum_sq) / (count - 1) / count)
    # per component, mean_C = S1 / k and var_C / (k mean_C^2) = (k S2 - S1^2) / ((k - 1) S1^2)
    s1, s2 = sums
    log_mean_det = float(_exact_total(np.array([_log(m) for m in s1 / count]))) + shift
    rel2 = ((count * s2 - s1 * s1) / ((count - 1) * s1 * s1)).sum() if count > 1 else 0
    return EstimateResult(
        k=k,
        t=t,
        seed=seed,
        per_sample=per_sample,
        mean_log=mean_log,
        std_err=std_err,
        failures=failures,
        max_abs_variate=max_abs,
        log_mean_det=log_mean_det,
        log_std_err_det=log_mean_det + 0.5 * _log(rel2) if rel2 > 0 else -math.inf,
    )
