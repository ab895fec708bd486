"""Monte Carlo estimation of the log-determinant average and its bounds.

Each sample index owns a counter-based substream: the 64-bit seed and the
index pass through the splitmix64 avalanche, and every uniform is again a
pure function of (substream key, position). Normals come from Box-Muller
on fixed uniform pairs, so draws are random access - no generator state,
identical results for any batching, thread count, or evaluation order. The bytes are
identical on one host with one numpy and OpenBLAS build; across hosts, numpy's SIMD
dispatch of log moves a few normals by an ulp (about 4e-16 relative), and OpenBLAS's
kernels may move the factorizations' last bits.

The geometric mean of det(sqrt(t) I + Y) over samples estimates
exp(E log det), which lower-bounds the matching polynomial value (times
sqrt(t) when the vertex count is odd). The arithmetic mean of the same
determinants is the unbiased estimator of the polynomial itself.

Each connected component takes one of three routes. A component of three or more
vertices whose edges carry one weight w, complete or complete bipartite, takes the
chain: its Gaussian matrix is orthogonally invariant in law, and Householder and
Golub-Kahan reduction give that law exactly as sqrt(w) T, T skew-tridiagonal with
independent chi off-diagonals (Dumitriu and Edelman, "Matrix models for beta
ensembles", J. Math. Phys. 43, 2002; Silverstein, Ann. Probab. 13, 1985). Each chi^2
below _LARGE_DEGREE degrees is a sum of logs of uniforms, and each from it on one
Marsaglia-Tsang gamma draw (_chi_squares), so a sample is O(n) variates and an O(n)
recurrence. Its determinant keeps its law, so the plan, the certificate and the bracket
are unchanged. Any other component is gathered from its edges' normals: left x right
on the Gram route where it is bipartite and U U^T keeps t, whole on the dense route
otherwise (_sample_plan).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Bipartition, SkewAdjacency, WeightedGraph, skew_adjacency
from .linalg import (
    SMALL_ORDER,
    NonPositiveDeterminantError,
    SkewSample,
    chain_logdet_batch,
    gram_logdet_batch,
    skew_logdet_batch,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BATCH = 3 << 12  # most rows a batch takes; the partition never depends on the thread count
_BATCH_BYTES = 24 << 20  # a batch's variates and matrices stay within this, whatever N
_CHUNK = 1 << 16  # pair blocks generated at once: the working buffers stay cache-sized
_TERMS = 1 << 14  # terms an exact-sum pass takes at once: cache-sized, and exact
_LARGE_DEGREE = 16  # chi^2 degrees from here on are drawn by Marsaglia-Tsang
MAX_THREADS = 256  # most threads an estimate takes: each share but one starts an OS thread
_LN2 = math.log(2.0)


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
    so the rows are made a chunk at a time in three reused buffers. The angle is written
    over tmp, and its cos and sin over bits, once _mix64 is done with each.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    radius_at, angle_at = ((2 * blocks + np.uint64(j)) * _GOLDEN for j in (1, 2))
    keys = _stream_keys(seed, np.arange(first_stream, first_stream + n_streams, dtype=np.uint64))
    z = np.empty((n_streams, 2 * len(blocks)))
    rows = max(1, _CHUNK // max(1, len(blocks)))
    bits, tmp = np.empty((2, min(rows, n_streams), len(blocks)), dtype=np.uint64)
    radius, angle, trig = np.empty(bits.shape), tmp.view(np.float64), bits.view(np.float64)
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
class _Chain:
    """One-weight complete and complete bipartite components of one shape: chains.

    Member c of a sample is sqrt(t) I + sqrt(weight[c]) T, T skew-tridiagonal with
    c_k^2 ~ chi^2 on degrees[k] degrees of freedom, its vertices past the chain (the
    larger side's n - m) adding (1/2) log t each (order is the vertex count). Member c
    reads the uniforms at positions start + c uniforms on, one range after another.
    Attempt r >= 1 of its large-degree variate j reads the three at retry + (r - 1)
    stride + 3 (c L + j) on, L large degrees a member (_chi_squares).
    """

    degrees: np.ndarray
    order: int
    weight: np.ndarray
    start: int
    retry: int  # the position of attempt 1 of its first large-degree variate
    stride: int  # positions between two attempts of a variate: 3 per large-degree variate

    @property
    def uniforms(self) -> int:
        """floor(d/2) for each degree d below _LARGE_DEGREE, two per Box-Muller block of
        the normals (one per odd degree below it, then one per degree from it on), and one
        per degree from it on."""
        small = self.degrees[self.degrees < _LARGE_DEGREE]
        large = self.degrees.size - small.size
        return int(np.sum(small // 2)) + 2 * ((int(np.sum(small % 2)) + large + 1) // 2) + large


@dataclass(frozen=True, eq=False)
class _SamplePlan:
    """How a batch of draws becomes log-determinants, fixed once per graph.

    The stream holds one normal per vertex pair, row-major, two per block;
    only the blocks that hold an edge of a matrix stack are drawn, and idle
    are the drawn columns that no such edge uses. Chains read the uniforms past
    every pair's. det of the block-diagonal sample is the product over
    components; shift adds exactly (1/2) log t per isolated vertex.
    """

    blocks: np.ndarray
    idle: np.ndarray
    stacks: tuple[_Stack, ...]
    chains: tuple[_Chain, ...]
    shift: float
    least: tuple[int, ...]  # each component's least vertex: stack members, then chain members


def _chi_degrees(n_c: int, bip: Bipartition | None, n_edges: int) -> tuple[int, ...] | None:
    """The chain's chi degrees of a component of n_c >= 3 vertices and one weight that is
    complete, (n_c - 1, ..., 1), or complete bipartite with sides m <= n, (d_1, s_1, d_2,
    ..., d_m) with d_i = n - i + 1 and s_i = m - i; else None. Householder and Golub-Kahan
    reduction give these laws exactly (Dumitriu and Edelman, J. Math. Phys. 43, 2002)."""
    if n_c < 3:
        return None
    if n_edges == n_c * (n_c - 1) // 2:
        return tuple(range(n_c - 1, 0, -1))
    if bip is None or n_edges != bip.m * bip.n:
        return None
    degrees = [d for i in range(bip.m) for d in (bip.n - i, bip.m - 1 - i)]
    return tuple(degrees[:-1])


def _sample_plan(g: WeightedGraph, t: float) -> _SamplePlan:
    """The plan of g at t > 0, which picks each component's route.

    A component of one weight w that _chi_degrees names takes the chain where its
    recurrence stays finite: every chi^2 variate is at most (n_C / 2) 75 (below, and at
    most 8.6 n_C from _LARGE_DEGREE on, _chi_squares), so each
    rho_k <= sqrt(t) + n_C 75 w / sqrt(t), which must be finite. Forming U U^T
    rounds each eigenvalue t + s^2 >= t by about n_C eps max_w, for a component of n_C
    vertices and largest weight max_w, so the Gram route is taken only where
    n_C eps max_w / t <= 1e-12; elsewhere a bipartite component takes the dense route.
    Every variate has z^2 <= 108 ln 2 < 75, so no entry of t I + U U^T exceeds
    t + n_C 75 max_w, which must be finite on the Gram route too. Built from the edge
    list in O(N + E) memory besides the stacks, n_C^2 entries a component.
    """
    n, (u, v, w) = g.n_vertices, np.array(g.edges or np.empty((0, 3))).T
    i, j = np.minimum(u, v).astype(np.intp), np.maximum(u, v).astype(np.intp)
    comps, eps = g.components, np.finfo(float).eps
    comp, row, col = [-1] * n, [-1] * n, [-1] * n  # each vertex's component, row and column
    for c, (verts, _) in enumerate(comps):
        for v in verts:
            comp[v] = c
    comp = np.array(comp)[i]  # each edge's component
    lightest, heaviest = np.full(len(comps), np.inf), np.zeros(len(comps))
    np.minimum.at(lightest, comp, w)
    np.maximum.at(heaviest, comp, w)
    sizes = np.bincount(comp, minlength=len(comps))
    groups: dict[tuple, list] = {}  # (route, rows or degrees, cols or order): its members
    keys, member = [], []
    for c, (verts, bip) in enumerate(comps):
        n_c, max_w = len(verts), float(heaviest[c])
        degrees = _chi_degrees(n_c, bip, int(sizes[c])) if lightest[c] == max_w else None
        if degrees and math.sqrt(t) + n_c * 75.0 * max_w / math.sqrt(t) < math.inf:
            keys.append(("chain", degrees, n_c))
        else:
            if bip is not None:
                keeps_t = n_c * eps * (max_w / t) <= 1e-12
                bip = bip if keeps_t and t + n_c * 75.0 * max_w < math.inf else None
            rows, cols = (sorted(verts),) * 2 if bip is None else (bip.left, bip.right)
            for side, place in ((rows, row), (cols, col)):
                for r, v in enumerate(side):
                    place[v] = r
            keys.append(("dense" if bip is None else "gram", len(rows), len(cols)))
        member.append(len(groups.setdefault(keys[-1], [])))
        groups[keys[-1]].append(c)
    # the stacks, then the chains, each in order of first member
    groups = dict(sorted(groups.items(), key=lambda group: group[0][0] == "chain"))
    order = {key: s for s, key in enumerate(groups)}
    kept = np.array([key[0] != "chain" for key in keys], dtype=bool)[comp]  # the stacks' edges
    i, j, comp, root = i[kept], j[kept], comp[kept], np.sqrt(w[kept])
    pair = i * n - i * (i + 1) // 2 + (j - i - 1)
    blocks = np.unique(pair // 2)
    edges = 2 * np.searchsorted(blocks, pair // 2) + pair % 2  # each edge's column of z
    stack = np.array([order[key] for key in keys], dtype=np.intp)[comp]  # each edge's stack
    member, row, col = np.array(member, dtype=np.intp)[comp], np.array(row), np.array(col)
    stacks, chains, start = [], [], n * (n - 1) + 1  # the chains' uniforms follow the pairs'
    for s, ((route, n_rows, n_cols), members) in enumerate(groups.items()):
        if route == "chain":
            chains.append(_Chain(np.array(n_rows), n_cols, heaviest[members], start, 0, 0))
            start += chains[-1].uniforms * len(members)
            continue
        coef = np.zeros((len(members), n_rows, n_cols))
        index = np.zeros(coef.shape, np.intp)  # an entry off every edge reads column 0, times 0
        for a, b, sign in ((i, j, root), (j, i, -root)):  # entry (a, b): a a row, b a column
            on = (stack == s) & (row[a] >= 0) & (col[b] >= 0)
            at = member[on], row[a[on]], col[b[on]]
            coef[at], index[at] = sign[on], edges[on]
        stacks.append(_Stack(route == "dense", coef, index))
    # retries follow every chain's range, three uniforms per large-degree variate an attempt
    large = [int(np.sum(ch.degrees >= _LARGE_DEGREE)) * len(ch.weight) for ch in chains]
    retry = start + 3 * np.cumsum([0] + large)
    chains = [replace(ch, retry=int(r), stride=3 * sum(large)) for ch, r in zip(chains, retry)]
    idle = np.setdiff1d(np.arange(2 * len(blocks)), edges)
    isolated = n - sum(len(verts) for verts, _ in comps)
    least = tuple(min(comps[c][0]) for members in groups.values() for c in members)
    shift = isolated * (0.5 * math.log(t)) if isolated else 0.0
    return _SamplePlan(blocks, idle, tuple(stacks), tuple(chains), shift, least)


def _matrices(stack: _Stack, z: np.ndarray) -> np.ndarray:
    """The matrices coef * z[index] of every member and sample, as one (rows, cols) stack.

    A small stack is gathered batch-innermost: z.T indexed by the plan's index,
    transposed to (rows, cols, members), gives (rows, cols, members, count) in one
    gather, and its view as (members * count, rows, cols) is member-major. A larger
    one is gathered by np.take, in C order, as (count * members, rows, cols):
    sample-major.
    """
    if stack.small:
        mats = z.T[stack.index.transpose(1, 2, 0)]
        mats *= stack.coef.transpose(1, 2, 0)[..., None]
        return mats.reshape(*mats.shape[:2], -1).transpose(2, 0, 1)
    mats = np.take(z, stack.index, axis=1)
    mats *= stack.coef
    return mats.reshape(-1, *mats.shape[2:])


def _gamma_attempt(z: np.ndarray, u: np.ndarray, shape: np.ndarray, scale: np.ndarray):
    """(2 shape v, whether Marsaglia-Tsang accepts it) for a normal z and a uniform u:
    v = (1 + scale z)^3, scale = 1 / sqrt(9 shape), shape = a - 1/3 for Gamma(a), a >= 1,
    accepted where v > 0 and log u < z^2 / 2 + shape - shape v + shape log v."""
    v = 1.0 + scale * z
    v = v * v * v
    with np.errstate(invalid="ignore", divide="ignore"):  # v <= 0 is rejected
        ok = (v > 0) & (np.log(u) < 0.5 * z * z + shape - shape * v + shape * np.log(v))
    return 2.0 * shape * v, ok


def _chi_squares(chain: _Chain, seed: int, start: int, count: int):
    """((degrees, members, count) variates weight c^2 of samples start to start + count - 1,
    largest |normal| among them).

    A member's chi^2_d below _LARGE_DEGREE is -2 sum log u over floor(d/2) uniforms, taken
    in the order of its degrees from its first position on; each odd d then adds z^2 for
    one normal, r cos a or r sin a, of the Box-Muller blocks that follow (r's uniform, then
    a's). From _LARGE_DEGREE on, chi^2_d is 2 Gamma(d/2), drawn exactly by Marsaglia and
    Tsang (ACM TOMS 26, 2000): attempt 0 takes the blocks' next normal and one uniform of
    those past the blocks, and each rejected attempt r - 1 is followed by attempt r at
    the chain's retry + (r - 1) stride + 3 (c L + j): r's and a's uniform, whose cosine
    half is the normal, and the uniform it is tested with. A variate is 2 (a - 1/3)
    (1 + scale z)^3 <= 17.1 a <= 8.6 n_C for |z| <= sqrt(108 ln 2) and a >= 8. A chunk of
    samples is made position-major in reused buffers, so each sum runs over rows and no
    value depends on the chunk or on another sample.
    """
    d, per, members = chain.degrees, chain.uniforms, len(chain.weight)
    large, small = np.flatnonzero(d >= _LARGE_DEGREE), d < _LARGE_DEGREE
    half, odd = np.where(small, d // 2, 0), np.flatnonzero(small & (d % 2 == 1))
    logs, summed = int(half.sum()), np.flatnonzero(half)
    at = (np.cumsum(half) - half)[summed]  # the first log row of each degree past 1
    normals, tested = len(odd) + len(large), per - len(large)  # the tests' first uniform
    shape = d[large, None] / 2.0 - 1.0 / 3.0
    scale = 1.0 / np.sqrt(9.0 * shape)
    steps = (chain.start + np.arange(per * members, dtype=np.uint64)) * _GOLDEN
    keys = _stream_keys(seed, np.arange(start, start + count, dtype=np.uint64))
    out, peak = np.zeros((len(d), members, count)), 0.0
    cols = max(1, min(count, _CHUNK // steps.size))
    buf, bits, tmp = np.empty(steps.size * cols), *np.empty((2, steps.size * cols), np.uint64)
    for lo in range(0, count, cols):
        n = min(cols, count - lo)
        work = (a[: steps.size * n].reshape(-1, n) for a in (buf, bits, tmp))
        x = _uniforms(steps, keys[lo : lo + n], *work).reshape(members, per, n)
        sq, r, a = out[:, :, lo : lo + n], x[:, logs:tested:2], x[:, logs + 1 : tested : 2]
        np.log(x[:, :logs], out=x[:, :logs])
        sq[summed] = -2.0 * np.add.reduceat(x[:, :logs], at, axis=1).transpose(1, 0, 2)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        a *= 2.0 * math.pi
        z = np.empty((members, 2 * r.shape[1], n))
        np.multiply(r, np.cos(a), out=z[:, 0::2])
        np.multiply(r, np.sin(a), out=z[:, 1::2])
        z, big = z[:, : len(odd)], z[:, len(odd) : normals]
        peak = max(peak, float(np.abs(z).max(initial=0.0)))
        sq[odd] += (z * z).transpose(1, 0, 2)
        if not large.size:
            continue
        value, ok = _gamma_attempt(big, x[:, tested:], shape, scale)
        peak = max(peak, float(np.abs(big).max(where=ok, initial=0.0)))
        (c, j, col), attempt = np.nonzero(~ok), 0
        while c.size:
            pos = chain.retry + attempt * chain.stride + 3 * (c * len(large) + j)
            tries = (pos.astype(np.uint64)[:, None] + np.arange(3, dtype=np.uint64)) * _GOLDEN
            bufs = np.empty(tries.shape), *np.empty((2, *tries.shape), np.uint64)
            u = _uniforms(keys[lo + col], tries, *bufs)
            normal = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])
            v, took = _gamma_attempt(normal, u[:, 2], shape[j, 0], scale[j, 0])
            value[c[took], j[took], col[took]] = v[took]
            peak = max(peak, float(np.abs(normal[took]).max(initial=0.0)))
            (c, j, col), attempt = (c[~took], j[~took], col[~took]), attempt + 1
        sq[large] = value.transpose(1, 0, 2)
    out *= chain.weight[:, None]
    return out, peak


def _batch_rows(plan: _SamplePlan) -> int:
    """Rows per batch: as many as fit _BATCH_BYTES, at most _BATCH, at least 1.

    A sample takes 8 bytes per drawn normal in z, per entry of its gathered
    matrices and per chi^2 variate of its chains; an edgeless plan takes none.
    """
    row_bytes = 8 * (
        2 * len(plan.blocks)
        + sum(s.coef.size for s in plan.stacks)
        + sum(ch.degrees.size * ch.weight.size for ch in plan.chains)
    )
    return min(_BATCH, max(1, _BATCH_BYTES // max(1, row_bytes)))


def sample_skew(adj: SkewAdjacency, stream: RngStream, i: int) -> SkewSample:
    """Sample i as the N x N matrix from every pair's normal, off-edge entries +0."""
    upper = np.triu_indices(adj.dimension, 1)
    y = np.zeros((adj.dimension, adj.dimension))
    y[upper] = adj.matrix[upper] * stream.substream(i).normals(len(upper[0])) + 0.0
    return SkewSample(y - y.T)


def _exact_moments(x: np.ndarray, e: np.ndarray):
    """((s1, p1), (s2, p2)) such that row r of the finite doubles x and integers e sums
    exactly to sum x 2^e = s1[r] 2^p1 and sum x^2 2^2e = s2[r] 2^p2 (object arrays of ints).

    The pass takes _TERMS terms at a time, whole rows where they fit, so that its arrays
    stay cache-sized (_exact_chunk); integer sums add exactly, so no order or split of
    the terms moves a bit.
    """
    if not x.size:
        return ((np.zeros(len(x), dtype=object), 0),) * 2
    width = min(x.shape[1], _TERMS)
    height = _TERMS // width
    chunks = [
        functools.reduce(_add_moments, (
            _exact_chunk(x[r : r + height, c : c + width], e[r : r + height, c : c + width])
            for c in range(0, x.shape[1], width)
        ))
        for r in range(0, len(x), height)
    ]
    return tuple((np.concatenate(ints), p) for ints, p in (_aligned(*s) for s in zip(*chunks)))


def _exact_chunk(x: np.ndarray, e: np.ndarray):
    """_exact_moments of at most _TERMS terms, by integer sums per binade.

    np.frexp gives x 2^e = m 2^(p + e - 53), with |m| < 2^53 an integer, read as limbs
    m = l2 2^36 + l1 2^18 + l0, 0 <= l0, l1 < 2^18, so that m^2 = sum_j c_j 2^(18 j), with
    c = (l0^2, 2 l0 l1, l1^2 + 2 l0 l2, 2 l1 l2, l2^2) and each |c_j| < 2^37. One bincount
    sums l1 2^18 + l0 and l2 by binade of m, and each c_j by binade of m^2 (a bin is a
    factor 4). A bin takes at most one value below 2^37 a term, so over _TERMS = 2^14
    terms it stays below 2^51: exact in a double, and 10 binades of m (5 of m^2) combine
    below 2^61 in an int64. The int64 blocks then add up in a Python int.
    """
    rows, cols = x.shape
    w = np.empty((7, rows, cols))
    low_m, l2, c0, c1, c2, c3, c4 = w
    m, p = np.frexp(x, out=(c4, np.empty(x.shape, dtype=np.int64)))
    m *= 2.0**53
    np.floor(np.multiply(m, 2.0**-36, out=l2), out=l2)
    np.subtract(m, l2 * 2.0**36, out=low_m)  # l1 2^18 + l0
    l1 = np.floor(np.multiply(low_m, 2.0**-18, out=c3), out=c3)
    l0 = np.subtract(low_m, l1 * 2.0**18, out=c0)
    np.multiply(l0, l1, out=c1)
    c1 *= 2.0
    np.multiply(l0, l2, out=c2)
    c2 *= 2.0
    c2 += l1 * l1
    np.multiply(l1, l2, out=c3)  # l1 was kept in c3: each entry is read before it is written
    c3 *= 2.0
    np.multiply(l2, l2, out=c4)
    np.multiply(l0, l0, out=c0)
    p += e
    low = p.min(axis=1)
    p -= low[:, None]
    span = -(-(int(p.max()) + 37) // 10) * 10  # room for each row's top binade, limbs 36 up
    p += np.arange(0, rows * span, span)[:, None]
    bins = np.array([0, 36, 0, 9, 18, 27, 36]) + np.repeat([0, rows * span], [2, 5])
    sums = np.bincount((p + bins[:, None, None]).ravel(), w.ravel(), 2 * rows * span)
    sums = sums.astype(np.int64).reshape(2, rows, -1, 10)
    blocks = sums[0] @ (1 << np.arange(10)), sums[1].reshape(rows, -1, 5) @ (4 ** np.arange(5))
    base, shift = int(low.min()), (low - low.min()).astype(object)
    return tuple(
        ((b.astype(object) << 10 * np.arange(b.shape[1]).astype(object)).sum(axis=1) << k * shift,
         k * (base - 53))
        for k, b in zip((1, 2), blocks)
    )


def _aligned(*sums):
    """Exact sums (ints, p), each ints 2^p, brought to their least p: ([ints, ...], p)."""
    low = min(p for _, p in sums)
    return [ints << p - low for ints, p in sums], low


def _add_moments(a, b):
    """The sum of two _exact_moments of the same rows."""
    return tuple((ints[0] + ints[1], p) for ints, p in (_aligned(x, y) for x, y in zip(a, b)))


def _quotient(num: int, den: int, p: int) -> float:
    """num 2^p / den rounded once, for ints num and den > 0."""
    return (num << p) / den if p >= 0 else num / (den << -p)


def _log(num: int, den: int, p: int) -> float:
    """log of num 2^p / den > 0, normalized by the bit lengths of its lowest terms so that
    no part overflows, and so that the result depends on the ratio alone, not on how it
    is written."""
    num, den = num << max(p, 0), den << max(-p, 0)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    a = num.bit_length() - den.bit_length()
    return math.log(_quotient(num, den, -a)) + a * _LN2


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """The mean log-determinant of k samples, and the mean determinant, at t > 0.

    mean_log estimates the expectation E log det(sqrt(t) I + Y); exp(mean_log) is the
    certified lower-bound quantity, while mean_det estimates the polynomial value itself
    (times sqrt(t) at odd N), as the product over components of their mean determinants,
    unbiased as components draw disjoint normals; std_err_det is the delta method's,
    rel^2 = sum_C var_C / (k mean_C^2). Both are kept as logs, and are inf where they
    exceed the largest double.

    Every statistic comes from the exact moments S1 = sum x and S2 = sum x^2 of the
    log-determinants and of each component's determinants, integers times powers of
    two (_exact_moments): mean_log is S1 / k rounded once, and std_err is sqrt(var / k)
    of the exact var = (k S2 - S1^2) / (k (k - 1)), which is 0 at k = 1 and for equal
    samples. So neither the thread count nor the batch size moves a bit of
    any field. No storage grows with k: each thread adds up its own batches'
    moments as it goes, and a batch's variates and matrices stay within
    _BATCH_BYTES, whatever N (see _batch_rows).
    """

    k: int
    t: float
    seed: int
    mean_log: float
    std_err: float
    max_abs_variate: float  # diagnostic: largest |normal| that enters a matrix or a chain
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
    deviation_radius: float  # r = ln(1 + epsilon) / N, so that exp(N r) = 1 + epsilon
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
    """Sample count ceil(W x / (t s^2)), radius s/N, s = ln(1 + eps), any W >= 2 nu*.

    x = ln(2/delta) + ln(1 + (delta/2)^(rho - 1)), rho = (s'/s)^2, spends delta/2 on the
    two tails, each at its own radius: s above the expectation and s' = -ln(1 - eps)
    below it. nu* is the largest weight of a fractional matching of the graph. Twice the
    weight of any fractional vertex cover is such a W (graphs.weight_sums' cover_sum),
    and so is the heaviest weight sum sum_i max_j w_ij; the worst case, every vertex
    paying the largest weight a^2, is W = a^2 N.

    nu*/t <= W/2t bounds the squared Lipschitz constant of f(z) = log det(sqrt(t) I + Y(z)),
    where Y_ij = a_ij z_ij = -Y_ji for i < j. Its gradient is df/dz_ij = a_ij K_ij
    with K = 2Y (tI + Y^T Y)^-1, since M^-1 - M^-T = -2Y (tI - Y^2)^-1 for
    M = sqrt(t) I + Y; K is skew and its singular values are 2g / (t + g^2) <=
    1/sqrt(t). The gradient has one entry per unordered pair, so |grad f|^2 =
    sum_{i<j} w_ij K_ij^2. Row i of K has sum_j K_ij^2 = (K K^T)_ii <= 1/t, so
    x_ij = t K_ij^2 is a fractional matching and |grad f|^2 = sum_{i<j} w_ij x_ij / t
    <= nu*/t, which K2 and every star attain at y = sqrt(t) on one heaviest edge. By
    LP duality nu* is the least weight sum_i c_i of a fractional vertex cover (c >= 0,
    c_i + c_j >= w_ij on every edge): c_i = max_j w_ij / 2 gives the heaviest weight
    sum, and on a bipartite graph either side's heaviest weights are a cover.

    Gaussian concentration for Lipschitz functions (Tsirelson-Ibragimov-Sudakov;
    Boucheron, Lugosi and Massart, Concentration Inequalities, Thm 5.6) bounds each
    side alone: the mean of k samples lies s or more above its expectation with
    probability at most e^(-a s^2), and s' or more below it with at most e^(-a s'^2),
    a = t k / W. At this k, a s^2 >= x and a s'^2 >= rho x, and with q = (delta/2)^(rho-1)
    and rho >= 1, e^-x + e^(-rho x) = (delta/2) / (1 + q) + (delta/2)^rho / (1 + q)^rho
    <= delta/2. A mean inside (-s', s) of its expectation puts the geometric-mean
    estimate inside a factor (e^-s', e^s) = (1 - eps, 1 + eps) of its target. At
    eps = 1 no mean fails below (s' = inf) and x = ln(2/delta); as eps -> 0, x tends
    to ln(4/delta), both tails at s, which x never passes. An edgeless graph has W = 0
    and takes one sample. A count that is not finite, or past 2**64, one sample per
    uint64 index, raises ValueError.
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
    s, lower = math.log1p(epsilon), -math.log1p(-epsilon) if epsilon < 1 else math.inf
    tails = math.log(2.0 / delta) + math.log1p((delta / 2.0) ** ((lower / s) ** 2 - 1.0))
    k = heaviest_weight_sum * min(tails, math.log(4.0 / delta)) / (t * s**2 or math.nan)
    if not k < math.inf:  # the count overflows, or t ln(1 + eps)^2 underflows to 0
        raise ValueError(f"the planned sample count is not finite at eps {epsilon}, t {t}")
    if k > 2**64:
        msg = f"the planned sample count {k:.3g} is too large at eps {epsilon}, t {t}"
        raise ValueError(f"{msg}: it must be at most 2**64, one per uint64 index")
    return FprasPlan(
        epsilon=epsilon,
        delta=delta,
        deviation_radius=s / n_vertices,
        samples=max(1, math.ceil(k)),
    )


def tail_bound(r: float, n_vertices: int, k: int, t: float, *, heaviest_weight_sum: float) -> float:
    """Deviation probability bound 2 exp(-t k N^2 r^2 / W), for any W >= 2 nu*.

    Bounds Pr(|mean of k log-determinants - its expectation| >= N r) by Gaussian
    concentration, exp(-k (N r)^2 / 2L^2) a side with plan_samples' L^2 <= nu*/t <= W/2t.
    Both sides are at r here; plan_samples holds its two sides, at their own radii, to
    delta/2 together, so at its plan this symmetric bound may pass delta/2.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not t > 0:
        raise ValueError("t must be positive")
    if k < 1 or n_vertices < 1:
        raise ValueError("k and n_vertices must be at least 1")
    if not heaviest_weight_sum > 0:
        raise ValueError("heaviest_weight_sum must be positive")
    return 2.0 * math.exp(-t * k * n_vertices**2 * r**2 / heaviest_weight_sum)


def log_gap_bound(parts: Sequence[tuple[float, int]], t: float, c1: float) -> float:
    """sum_C min(W_C / 4t, n_C c1) over parts (W_C, n_C), for any W_C >= 2 nu*_C.

    log E det - E log det adds over components, which draw disjoint normals.
    A component's gap is at most L_C^2 / 2 <= W_C / 4t, by Gaussian concentration with
    plan_samples' L_C^2 <= nu*_C / t, and at most n_C c1 per vertex. graphs.weight_sums'
    parts are (2 nu_C, n_C) from a fractional vertex cover. A part without an edge
    (W_C = 0) is exact. t must be positive.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    return math.fsum(min(w / t / 4.0, n * c1) for w, n in parts if w > 0)


def bounds_report(
    est: EstimateResult, n_vertices: int, t: float, c1: float, *, parts: Sequence[tuple[float, int]]
) -> BoundsReport:
    """Assemble the additive bracket from an estimate: gap log_gap_bound(parts, t, c1).

    parts are the graph's (W_C, n_C), any W_C >= 2 nu*_C (graphs.weight_sums'
    parts); the worst case, every vertex its own part of weight a^2, is
    ((a^2, 1),) * N. The finite-sample gap log1p(sqrt(4kW / pi t) exp(kW / 4t)) / k,
    W = sum_C W_C, is never smaller, so it is not reported. With E = kW / 4t >= k L^2 / 2
    (plan_samples) its log1p argument is 4 sqrt(E/pi) e^E, and e^-E + 4 sqrt(E/pi) >= 1
    for E >= 0 (1 at E = 0, increasing since e^E > sqrt(pi E) / 2), so the gap is at
    least log(e^E) / k = W / 4t >= log_gap_bound(parts, t, c1).
    """
    n = n_vertices
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


def _batch(plan: _SamplePlan, t: float, seed: int, start: int, count: int):
    """Samples start to start + count - 1: (log-determinants in index order, the exact
    moments of those and of each component's determinants in one pass, largest |normal|
    used). The kernels are module attributes, looked up at each call, so a wrapper of one
    is used. A value that is not finite raises NonPositiveDeterminantError, naming the
    lowest such sample.
    """
    z = _normal_block(seed, start, count, plan.blocks)
    z[:, plan.idle] = 0.0  # they enter no matrix, so they leave the peak alone
    parts = [np.zeros((count, 0))]
    peak = max(float(z.max(initial=0.0)), -float(z.min(initial=0.0)))
    for s in plan.stacks:
        values = (skew_logdet_batch if s.dense else gram_logdet_batch)(_matrices(s, z), t)
        parts.append(values.reshape(-1, count).T if s.small else values.reshape(count, -1))
    for ch in plan.chains:
        c2, chain_peak = _chi_squares(ch, seed, start, count)
        values = chain_logdet_batch(c2.reshape(len(c2), -1), t, ch.order)
        parts.append(values.reshape(-1, count).T)
        peak = max(peak, chain_peak)
    per_comp = np.concatenate(parts, axis=1)
    bad = np.flatnonzero(~np.isfinite(per_comp))  # sample-major: the first is the lowest sample
    if bad.size:
        row, c = divmod(int(bad[0]), per_comp.shape[1])
        raise NonPositiveDeterminantError(
            f"sample {start + row}, component with least vertex {plan.least[c] + 1}: log det "
            f"{per_comp[row, c]} where a positive finite determinant is guaranteed"
        )
    total = sum(per_comp.T, np.full(count, plan.shift))  # component by component, in plan order
    # row 0 sums the log-determinants, row C + 1 component C's determinants e^v = f 2^n
    v = np.ascontiguousarray(per_comp.T)
    x, e = np.empty((len(v) + 1, count)), np.zeros((len(v) + 1, count), dtype=np.int64)
    x[0] = total
    e[1:] = np.floor(v / _LN2)  # f rounded once
    np.exp(v - e[1:] * _LN2, out=x[1:])
    return total, _exact_moments(x, e), peak


def estimate_log_phi_tilde(
    g: WeightedGraph,
    t: float,
    k: int,
    seed: int,
    *,
    threads: int | None = None,
) -> EstimateResult:
    """Average log det(sqrt(t) I + Y) over k independent samples, for 0 < t < inf.

    Each connected component takes its own route: the chain when it has one weight
    and is complete or complete bipartite, the Gram-matrix route when it is
    bipartite and U U^T keeps t, the dense antisymmetric factorization otherwise
    (see _sample_plan); a sample's value is the sum over components, in a fixed
    order. Thread i of n sums batches i, i + n, ... exactly, so no thread count
    or batch size moves a result, nor the lowest failing sample an error names. A
    thread count past MAX_THREADS raises ValueError before any thread starts.
    """
    if not 1 <= k <= 2**64:
        raise ValueError("the sample count must be from 1 to 2**64, one per uint64 index")
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if threads is not None and not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be from 1 to {MAX_THREADS}")

    plan = _sample_plan(g, t)
    rows = _batch_rows(plan)  # rows depend on the plan alone
    n = min(threads or 1, -(-k // rows))  # no share without a batch
    failed = []  # (start, error) of each failing batch; a stale read runs one more batch

    def share(first: int):
        sums, peak = None, 0.0
        for start in range(first, k, n * rows):
            if failed and min(failed)[0] < start:  # a lower batch failed: stop here
                break
            try:
                _, batch_sums, batch_peak = _batch(plan, t, seed, start, min(rows, k - start))
                sums = batch_sums if sums is None else _add_moments(sums, batch_sums)
                peak = max(peak, batch_peak)
            except BaseException as exc:  # a Ctrl-C too: the other shares stop
                failed.append((start, exc))
        return sums, peak

    with ThreadPoolExecutor(max_workers=n) as pool:
        # one share runs here: np.errstate is per thread, and a caller's reaches no worker
        others = pool.map(share, range(rows, n * rows, rows))
        try:
            sums, peaks = zip(share(0), *others)
        except BaseException as exc:  # a Ctrl-C while the others run: they stop as well
            failed.append((-1, exc))
            raise
    if failed:
        raise min(failed)[1]
    # row 0 sums the log-determinants, row C + 1 component C's determinants; each unbiased
    # variance d 2^q / (k (k - 1)) is exact, and 0 at k = 1, where k S2 = S1^2
    (s1, p1), (s2, p2) = functools.reduce(_add_moments, sums)
    q, k1 = min(p2, 2 * p1), max(k - 1, 1)
    d = (k * s2 << p2 - q) - (s1 * s1 << 2 * p1 - q)
    log_mean_det = math.fsum(_log(a, k, p1) for a in s1[1:]) + plan.shift
    # rel^2 = sum_C d_C 2^(q - 2 p1) / (k1 S1_C^2): each term's log from its exact ratio,
    # added by a log-sum-exp shifted by the largest, so the cost is linear in the components
    terms = [_log(dc, k1 * ac * ac, q - 2 * p1) for dc, ac in zip(d[1:], s1[1:]) if dc]
    top = max(terms, default=-math.inf)
    log_rel2 = top + math.log(math.fsum(math.exp(x - top) for x in terms)) if terms else -math.inf
    return EstimateResult(
        k=k, t=t, seed=seed, max_abs_variate=max(peaks),
        mean_log=_quotient(s1[0], k, p1), std_err=math.sqrt(_quotient(d[0], k * k * k1, q)),
        log_mean_det=log_mean_det,  # rel^2 = sum_C var_C / (k mean_C^2), the delta method's
        log_std_err_det=log_mean_det + 0.5 * log_rel2,
    )
