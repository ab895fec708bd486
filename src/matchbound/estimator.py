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
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import SkewAdjacency, WeightedGraph, components, skew_adjacency
from .linalg import (
    SMALL_ORDER,
    NonPositiveDeterminantError,
    SkewSample,
    gram_logdet_batch,
    skew_logdet_batch,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BATCH = 4096  # most rows a batch takes; the partition never depends on the thread count
_BATCH_BYTES = 24 << 20  # a batch's variates and matrices stay within this, whatever N
_CHUNK = 1 << 16  # pair blocks generated at once: the working buffers stay cache-sized
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

    @property
    def small(self) -> bool:
        """Whether its order (rows) is at most SMALL_ORDER: the kernels then eliminate it."""
        return self.coef.shape[1] <= SMALL_ORDER


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


def _sample_plan(g: WeightedGraph, t: float = 0.0) -> _SamplePlan:
    """The plan of g at t, which picks each bipartite component's route.

    Forming U U^T rounds each eigenvalue t + s^2 >= t by about n_C eps max_w, for a
    component of n_C vertices and largest weight max_w, so the Gram route is taken
    only where n_C eps max_w / t <= 1e-12, and at t = 0, where it factors U itself;
    elsewhere a bipartite component takes the dense route. Every variate has
    z^2 <= 108 ln 2 < 75, so no entry of t I + U U^T exceeds t + n_C 75 max_w, which
    must be finite on the Gram route too.
    """
    adj, n = skew_adjacency(g), g.n_vertices
    i, j = np.nonzero(adj.matrix > 0)  # each edge's +sqrt(w) sits above the diagonal
    row_max = adj.matrix.max(axis=1)  # so the row of its lower end holds it
    pair = i * n - i * (i + 1) // 2 + (j - i - 1)
    blocks = np.unique(pair // 2)
    col = np.zeros((n, n), dtype=np.intp)  # an entry off every edge reads column 0, times 0
    col[i, j] = col[j, i] = edges = 2 * np.searchsorted(blocks, pair // 2) + pair % 2
    groups: dict[tuple[bool, int, int], list] = {}
    for verts, bip in (comps := components(g)):
        if bip is not None and t > 0:
            n_c, max_w = len(verts), float(np.square(row_max[list(verts)].max()))
            keeps_t = n_c * np.finfo(float).eps * (max_w / t) <= 1e-12
            bip = bip if keeps_t and t + n_c * 75.0 * max_w < math.inf else None
        rows, cols = (verts, verts) if bip is None else (bip.left, bip.right)
        groups.setdefault((bip is None, len(rows), len(cols)), []).append(np.ix_(rows, cols))
    stacks = tuple(
        _Stack(dense, np.stack([adj.matrix[c] for c in cells]), np.stack([col[c] for c in cells]))
        for (dense, _, _), cells in groups.items()
    )
    idle = np.setdiff1d(np.arange(2 * len(blocks)), edges)
    return _SamplePlan(blocks, idle, stacks, n - sum(len(v) for v, _ in comps))


def _matrices(stack: _Stack, z: np.ndarray, t: float) -> np.ndarray:
    """The matrices coef * z[index] of every member and sample, as one (rows, cols) stack.

    A small stack is gathered batch-innermost: z.T indexed by the plan's index,
    transposed to (rows, cols, members), gives (rows, cols, members, count) in one
    gather, and its view as (members * count, rows, cols) is member-major. A larger
    one is (count * members, rows, cols), sample-major: the dense stack is gathered by np.take, in C order, and the
    Gram stack by advanced indexing, which leaves the batch axis innermost for the
    summation order of U U^T (np.take would change its last bits).
    """
    if stack.small:
        mats = z.T[stack.index.transpose(1, 2, 0)]
        mats *= stack.coef.transpose(1, 2, 0)[..., None]
        mats = mats.reshape(*mats.shape[:2], -1).transpose(2, 0, 1)
    else:
        mats = np.take(z, stack.index, axis=1) if stack.dense else z[:, stack.index]
        mats *= stack.coef
        mats = mats.reshape(-1, *mats.shape[2:])
    if t == 0:  # the SVD sees the sign of 0 * z; -0.0 + 0.0 is +0.0
        mats += 0.0
    return mats


def _batch_rows(plan: _SamplePlan) -> int:
    """Rows per batch: as many as fit _BATCH_BYTES, at most _BATCH, at least 1.

    A sample takes 8 bytes per drawn normal in z and per entry of its gathered
    matrices; an edgeless plan takes none.
    """
    row_bytes = 8 * (2 * len(plan.blocks) + sum(s.coef.size for s in plan.stacks))
    return min(_BATCH, max(1, _BATCH_BYTES // max(1, row_bytes)))


def sample_skew(adj: SkewAdjacency, stream: RngStream, i: int) -> SkewSample:
    """Sample i as the N x N matrix from every pair's normal, off-edge entries +0."""
    upper = np.triu_indices(adj.dimension, 1)
    y = np.zeros((adj.dimension, adj.dimension))
    y[upper] = adj.matrix[upper] * stream.substream(i).normals(len(upper[0])) + 0.0
    return SkewSample(y - y.T)


def _exact_total(x: np.ndarray, e=0) -> Fraction:
    """sum(x 2^e) exactly, for finite doubles x and integers e, by integer sums per binade.

    np.frexp gives x = m 2^p, |m| in [1/2, 1), and m 2^27 = h + l 2^-26 with integers
    |h| < 2^27, |l| < 2^26. bincount sums the h and l per binade of p + e, exactly in a
    double; 16 adjacent binades combine in an int64, to which a term adds below 2^42, so
    the sum is exact up to 2^20 terms (a batch passes at most 2 _BATCH). The total does
    not depend on the order of the terms; float() rounds it once.
    """
    mant, exp = np.frexp(x)
    exp = exp + e
    base = int(exp.min()) if exp.size else 0  # an empty batch (every draw singular) sums to 0
    exp -= base
    low, high = np.modf(mant * 2.0**27)  # l 2^-26 and h, whose sums both stay exact
    width = (int(exp.max(initial=0)) + 42) // 16 * 16  # an h counts 26 binades above its own
    sums = np.bincount(exp, low, width) * 2.0**26
    sums[26:] += np.bincount(exp, high, width)[:-26]
    blocks = (sums.astype(np.int64).reshape(-1, 16) @ (1 << np.arange(16))).tolist()
    total, shift = sum(v << 16 * i for i, v in enumerate(blocks)), base - 53
    return Fraction(total << max(shift, 0), 1 << max(-shift, 0))


def _moments(x: np.ndarray, e=0) -> tuple[Fraction, Fraction]:
    """(sum x 2^e, sum x^2 2^2e) exactly, for finite doubles x and integers e.

    np.frexp gives x = m 2^p, |m| in [1/2, 1), and m^2 = g + err exactly (Dekker's
    product on Veltkamp's 26-bit halves of m), which neither overflows nor underflows.
    """
    m, p = np.frexp(x)
    p = 2 * (p + e)
    hi = m * (2.0**27 + 1)
    hi -= hi - m
    lo = m - hi
    g = m * m
    err = lo * lo - ((g - hi * hi) - 2.0 * hi * lo)
    return _exact_total(x, e), _exact_total(np.concatenate([g, err]), np.concatenate([p, p]))


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

    Every statistic comes from the exact moments S1 = sum x and S2 = sum x^2
    (_moments) of the log-determinants and of each component's determinants:
    mean_log is S1 / k rounded once, and std_err is sqrt(var / k) of the exact
    var = (k S2 - S1^2) / (k (k - 1)), which is 0 at k = 1 and for equal
    samples. So neither the thread count nor the batch size moves a bit of
    any field. per_sample, 8 bytes a sample, is written and never read back;
    it is the only storage that grows with k. Each batch's variates and
    matrices stay within _BATCH_BYTES per thread, whatever N (see _batch_rows).
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
    epsilon: float, delta: float, n_vertices: int, t: float, *, heaviest_weight_sum: float
) -> FprasPlan:
    """Sample count ceil(8 W log(4/delta) / (t eps^2)), radius eps/(2N).

    W = sum_i max_j w_ij sums each vertex's heaviest edge weight (the graph's
    heaviest_weight_sum, from graphs.heaviest_weight_sums); the worst case,
    every vertex paying the largest weight a^2, is W = a^2 N.

    W/t bounds the squared Lipschitz constant of f(z) = log det(sqrt(t) I + Y(z)),
    where Y_ij = a_ij z_ij = -Y_ji for i < j. Its gradient is df/dz_ij = a_ij K_ij
    with K = 2Y (tI + Y^T Y)^-1, since M^-1 - M^-T = -2Y (tI - Y^2)^-1 for
    M = sqrt(t) I + Y; K is skew and its singular values are 2s / (t + s^2) <=
    1/sqrt(t). Take w_ij K_ij^2 over every ordered pair (each edge from both
    ends), bound row i's weights by its heaviest, max_j w_ij, and its row norm
    of K by ||K||_2: |grad f|^2 <= sum_i max_j w_ij / t = W/t. Gaussian
    concentration for Lipschitz functions (Tsirelson-Ibragimov-Sudakov) then
    puts the mean of k samples more than N r from its expectation with
    probability at most 2 exp(-t k N^2 r^2 / (2W)) (tail_bound), which is at most
    delta/2 at this k and r = eps/(2N): the geometric-mean estimate is within a
    multiplicative (1 +- epsilon) of its target. An edgeless graph has W = 0 and
    takes one sample. A count that is not finite, or that an array of one double
    a sample cannot hold, raises ValueError.
    """
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must be in (0, 1]")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    if n_vertices < 1:
        raise ValueError("n_vertices must be at least 1")
    if not heaviest_weight_sum >= 0:
        raise ValueError("heaviest_weight_sum must be nonnegative")
    if not t > 0:
        raise ValueError("t must be positive")
    k = 8.0 * heaviest_weight_sum * math.log(4.0 / delta) / (t * epsilon**2 or math.nan)
    if not k < math.inf:  # the count overflows, or t eps^2 underflows to 0
        raise ValueError(f"the planned sample count is not finite at eps {epsilon}, t {t}")
    if k > np.iinfo(np.intp).max // 8:  # per_sample holds 8 bytes a sample
        raise ValueError(f"the planned sample count {k:.3g} is too large at eps {epsilon}, t {t}")
    return FprasPlan(
        epsilon=epsilon,
        delta=delta,
        deviation_radius=epsilon / (2.0 * n_vertices),
        samples=max(1, math.ceil(k)),
    )


def tail_bound(r: float, n_vertices: int, k: int, t: float, *, heaviest_weight_sum: float) -> float:
    """Deviation probability bound 2 exp(-t k N^2 r^2 / (2W)).

    Bounds Pr(|mean of k log-determinants - its expectation| >= N r), by
    Gaussian concentration with the squared Lipschitz constant W/t of
    plan_samples.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not t > 0:
        raise ValueError("t must be positive")
    if k < 1 or n_vertices < 1:
        raise ValueError("k and n_vertices must be at least 1")
    if not heaviest_weight_sum > 0:
        raise ValueError("heaviest_weight_sum must be positive")
    per_vertex = heaviest_weight_sum / n_vertices
    return 2.0 * math.exp(-t * k * n_vertices * r**2 / (2.0 * per_vertex))


def log_gap_bound(parts: Sequence[tuple[float, int]], t: float, c1: float) -> float:
    """sum_C min(W_C / 2t, n_C c1) over the (W_C, n_C) parts from graphs.heaviest_weight_sums.

    log E det - E log det adds over components, which draw disjoint normals.
    A component's gap is at most L_C^2 / 2 = W_C / 2t, by Gaussian concentration
    with plan_samples' Lipschitz constant, and at most n_C c1 per vertex; at
    t = 0 only the latter holds. A part without an edge (W_C = 0) is exact.
    """
    return math.fsum(min(w / t / 2.0, n * c1) if t > 0 else n * c1 for w, n in parts if w > 0)


def bounds_report(
    est: EstimateResult, n_vertices: int, t: float, c1: float, *, parts: Sequence[tuple[float, int]]
) -> BoundsReport:
    """Assemble the additive bracket from an estimate: gap log_gap_bound(parts, t, c1).

    parts are the graph's (W_C, n_C) (graphs.heaviest_weight_sums); the worst
    case, every vertex its own part of weight a^2, is ((a^2, 1),) * N. The
    finite-sample gap log1p(sqrt(8kW / pi t) exp(kW / 2t)) / k, W = sum_C W_C,
    is never smaller, so it is not reported. With E = kW / 2t its log1p
    argument is 4 sqrt(E/pi) e^E, and e^-E + 4 sqrt(E/pi) >= 1 for E >= 0
    (1 at E = 0, increasing since e^E > sqrt(pi E) / 2), so the gap is at
    least log(e^E) / k = W / 2t >= log_gap_bound(parts, t, c1).
    """
    n = n_vertices
    if n % 2 == 1 and t == 0:
        raise ValueError("odd vertex counts are not defined at t = 0")
    gap = log_gap_bound(parts, t, c1)
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
    it is bipartite and U U^T keeps t (see _sample_plan), the dense
    antisymmetric factorization otherwise; a sample's value is the sum over
    components, in a fixed order. Results are bitwise independent of the
    thread count and the batch size.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    if t == 0 and g.n_vertices % 2 == 1:
        raise ValueError("t = 0 requires an even vertex count")

    plan = _sample_plan(g, t)
    unmatchable = plan.isolated or any(  # a component that has no perfect matching
        s.coef.shape[1] != s.coef.shape[2] or (s.dense and s.coef.shape[2] % 2)
        for s in plan.stacks
    )
    if t == 0 and unmatchable:
        msg = "a component is odd or has unequal sides"
        raise EstimatorError(f"all {k} samples were singular at t = 0: {msg}")
    shift = plan.isolated * (0.5 * math.log(t)) if plan.isolated else 0.0  # isolated vertices

    rows = _batch_rows(plan)  # fixed per call: the partition depends on the plan alone

    def run(start: int):
        b = min(rows, k - start)
        z = _normal_block(seed, start, b, plan.blocks)
        z[:, plan.idle] = 0.0  # they enter no matrix, so they leave max_abs_variate alone
        parts = [np.zeros((b, 0))]
        for s in plan.stacks:
            kernel = skew_logdet_batch if s.dense else gram_logdet_batch
            try:
                values = kernel(_matrices(s, z, t), t)
            except NonPositiveDeterminantError as exc:  # name the sample drawn, not the row
                members, i = len(s.coef), exc.index
                row, member = (i % b, i // b) if s.small else (i // members, i % members)
                msg = f"sample {start + row}, component {member} of {members} alike: {exc}"
                raise NonPositiveDeterminantError(msg) from None
            parts.append(values.reshape(-1, b).T if s.small else values.reshape(b, -1))
        per_comp = np.concatenate(parts, axis=1)
        total = sum(per_comp.T, np.full(b, shift))  # component by component, in plan order
        singular = total == -np.inf  # a singular component's value is -inf
        peak = max(float(z.max(initial=0.0)), -float(z.min(initial=0.0)))
        kept, values = per_comp[~singular], total[~singular]
        n = np.floor(kept / _LN2).astype(np.int64)  # each determinant e^v is f 2^n, f rounded once
        f = np.exp(kept - n * _LN2)
        moments = [_moments(values)] + [_moments(fc, nc) for fc, nc in zip(f.T, n.T)]
        return values, np.array(moments, dtype=object).T, peak

    per_sample, count, sums, max_abs = np.empty(k), 0, 0, 0.0
    starts = range(0, k, rows)
    with ThreadPoolExecutor(max_workers=threads or 1) as pool:
        # one thread runs here: np.errstate is per thread, and a caller's reaches no worker
        batches = pool.map(run, starts) if threads and threads > 1 else map(run, starts)
        # every sum is exact, so neither the batch order nor the batch size can change it
        for values, batch_sums, peak in batches:
            per_sample[count : count + len(values)] = values
            count += len(values)
            sums = sums + batch_sums
            max_abs = max(max_abs, peak)

    if count == 0:
        raise EstimatorError(f"all {k} samples were singular at t = {t}")
    # column 0 sums the log-determinants, column C + 1 component C's determinants; each
    # unbiased variance is exact, and 0 at k = 1, where k S2 = S1^2
    s1, s2 = sums
    var = (count * s2 - s1 * s1) / (count * max(count - 1, 1))
    log_mean_det = math.fsum(_log(m) for m in s1[1:] / count) + shift
    rel2 = (var[1:] * count / (s1[1:] * s1[1:])).sum()  # sum_C var_C / (k mean_C^2)
    return EstimateResult(
        k=k,
        t=t,
        seed=seed,
        per_sample=per_sample[:count],
        mean_log=float(s1[0] / count),
        std_err=math.sqrt(float(var[0] / count)),
        failures=k - count,
        max_abs_variate=max_abs,
        log_mean_det=log_mean_det,
        log_std_err_det=log_mean_det + 0.5 * _log(rel2) if rel2 > 0 else -math.inf,
    )
