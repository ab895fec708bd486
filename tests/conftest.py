"""Shared graph fixtures and independent test oracles.

The oracles here never reuse the library's counting or factorization
paths: matching counts come from enumerating edge subsets, expectations
from Gauss-Hermite quadrature, the shifted log-gap from a Poisson-mixture
series, odd cycles from adjacency powers, the variate stream from its
plain out-of-place formula, the estimator's reduction from exact
rationals, and a determinant exactly, by fraction-free elimination on
Python integers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from matchbound import estimator
from matchbound.graphs import (
    WeightedGraph,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
)

EULER_GAMMA = 0.5772156649015329

# irregular weighted 6-vertex graph, frozen once (contains a triangle and
# both odd and even degrees)
RANDOM6_EDGES = (
    (0, 1, 1.7),
    (0, 2, 0.6),
    (1, 2, 2.2),
    (1, 4, 0.9),
    (2, 3, 1.3),
    (3, 4, 2.0),
    (3, 5, 0.8),
    (4, 5, 1.1),
    (0, 5, 1.4),
)


@pytest.fixture(scope="session")
def k2_w4() -> WeightedGraph:
    return WeightedGraph(2, ((0, 1, 4.0),))


@pytest.fixture(scope="session")
def k2_unit() -> WeightedGraph:
    return WeightedGraph(2, ((0, 1, 1.0),))


@pytest.fixture(scope="session")
def p3() -> WeightedGraph:
    return path_graph(3)


@pytest.fixture(scope="session")
def p6() -> WeightedGraph:
    return path_graph(6)


@pytest.fixture(scope="session")
def triangle() -> WeightedGraph:
    return WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


@pytest.fixture(scope="session")
def k4() -> WeightedGraph:
    return complete_graph(4)


@pytest.fixture(scope="session")
def k22() -> WeightedGraph:
    return complete_bipartite_graph(2, 2)


@pytest.fixture(scope="session")
def k23() -> WeightedGraph:
    return complete_bipartite_graph(2, 3)


@pytest.fixture(scope="session")
def random6() -> WeightedGraph:
    return WeightedGraph(6, RANDOM6_EDGES)


# K_{2,3} on {0, 7 | 4, 9, 11}, a triangle on {1, 5, 10}, K2 on {2, 8} and
# the isolated vertices 3 and 6: labels interleaved across components
MULTI_EDGES = (
    (0, 4, 1.3), (0, 9, 0.7), (11, 0, 2.1), (7, 4, 0.9), (9, 7, 1.6), (7, 11, 0.5),
    (1, 5, 1.2), (10, 5, 0.8), (1, 10, 1.9),
    (8, 2, 1.4),
)

# every component even: C4 on {0, 3, 5, 8}, K4 on {1, 2, 6, 9}, K2 on {4, 7}
# and on {10, 11} (two components of one shape share a stack)
EVEN_MULTI_EDGES = (
    (0, 3, 1.1), (3, 5, 0.6), (5, 8, 1.7), (8, 0, 0.9),
    (1, 2, 1.3), (1, 6, 0.7), (1, 9, 2.2), (2, 6, 1.0), (2, 9, 0.4), (6, 9, 1.5),
    (7, 4, 1.2), (10, 11, 0.8),
)


@pytest.fixture(scope="session")
def multi() -> WeightedGraph:
    return WeightedGraph(12, MULTI_EDGES)


@pytest.fixture(scope="session")
def even_multi() -> WeightedGraph:
    return WeightedGraph(12, EVEN_MULTI_EDGES)


def matrix_route(g: WeightedGraph, factor: float = 1.5) -> WeightedGraph:
    """g with the first edge of each one-weight component at factor times its weight: no
    component takes the chain, and each keeps its dense or Gram route."""
    comp = {v: c for c, (verts, _) in enumerate(g.components) for v in verts}
    weights: dict[int, set[float]] = {}
    for u, _, w in g.edges:
        weights.setdefault(comp[u], set()).add(w)
    seen, edges = set(), []
    for u, v, w in g.edges:
        second = len(weights[comp[u]]) == 1 and comp[u] not in seen
        edges.append((u, v, w * factor if second else w))
        seen.add(comp[u])
    return WeightedGraph(g.n_vertices, tuple(edges))


# past SMALL_ORDER: K13 on the dense route, and K13,13 (m = 13) on the Gram route
# alone and as a two-member stack; one edge at a second weight keeps each off the chain
@pytest.fixture(scope="session")
def k13() -> WeightedGraph:
    return matrix_route(complete_graph(13))


@pytest.fixture(scope="session")
def k13_13() -> WeightedGraph:
    return matrix_route(complete_bipartite_graph(13, 13))


@pytest.fixture(scope="session")
def two_k13_13(k13_13) -> WeightedGraph:
    edges = k13_13.edges  # the second copy on vertices 26 to 51
    return WeightedGraph(52, edges + tuple((u + 26, v + 26, w) for u, v, w in edges))


def brute_matching_counts(g: WeightedGraph) -> list[float]:
    """phi(0..floor(N/2)) by enumerating edge subsets. Independent oracle."""
    n = g.n_vertices // 2
    counts = [0.0] * (n + 1)
    counts[0] = 1.0
    for k in range(1, n + 1):
        total = 0.0
        for combo in itertools.combinations(g.edges, k):
            used = set()
            ok = True
            for u, v, _ in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                prod = 1.0
                for _, _, w in combo:
                    prod *= w
                total += prod
        counts[k] = total
    return counts


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """The rows x cols grid with unit weights, vertex r * cols + c at (r, c)."""
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1, 1.0) for r, c in cells if c + 1 < cols]
    edges += [(r * cols + c, (r + 1) * cols + c, 1.0) for r, c in cells if r + 1 < rows]
    return WeightedGraph(rows * cols, tuple(edges))


def sparse_graph() -> WeightedGraph:
    """16 disjoint K_{2,6}: copy c on vertices 8c..8c+7, sides 2 and 6, weight 0.5 + 1.5c/15."""
    edges = []
    for c in range(16):
        base, w = 8 * c, 0.5 + 1.5 * c / 15
        edges += [(base + u, base + 2 + v, w) for u in range(2) for v in range(6)]
    return WeightedGraph(128, tuple(edges))


def disjoint_k2(components: int, seed: int = 0) -> WeightedGraph:
    """components disjoint K2, copy c on vertices 2c and 2c + 1, weights uniform in [0.5, 2]."""
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, components).tolist()
    return WeightedGraph(2 * components, tuple((2 * c, 2 * c + 1, w) for c, w in enumerate(weights)))


def sample_row_bytes(g: WeightedGraph, t: float = 1.0) -> int:
    """Bytes one sample takes in an estimator batch, measured, not an oracle: the nbytes
    of its drawn normals, of its gathered matrices and of its chains' chi^2 variates on
    the plan of g at t."""
    plan = estimator._sample_plan(g, t)
    z = estimator._normal_block(0, 0, 1, plan.blocks)
    return (z.nbytes + sum(estimator._matrices(s, z).nbytes for s in plan.stacks)
            + sum(estimator._chi_squares(ch, 0, 0, 1)[0].nbytes for ch in plan.chains))


def relabel(g: WeightedGraph, rng: np.random.Generator) -> WeightedGraph:
    """g with its vertex labels randomly permuted."""
    perm = [int(v) for v in rng.permutation(g.n_vertices)]
    return WeightedGraph(g.n_vertices, tuple((perm[u], perm[v], w) for u, v, w in g.edges))


def delete_edge(g: WeightedGraph, index: int) -> WeightedGraph:
    edges = g.edges[:index] + g.edges[index + 1 :]
    return WeightedGraph(g.n_vertices, edges)


def delete_vertices(g: WeightedGraph, dead: set[int]) -> WeightedGraph:
    """Remove vertices and relabel the survivors, keeping edge order."""
    remap = {}
    for v in range(g.n_vertices):
        if v not in dead:
            remap[v] = len(remap)
    edges = tuple(
        (remap[u], remap[v], w) for u, v, w in g.edges if u not in dead and v not in dead
    )
    return WeightedGraph(max(len(remap), 1), edges)


def has_odd_cycle(g: WeightedGraph) -> bool:
    """Odd closed walk detection via odd powers of the 0/1 adjacency matrix."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    for u, v, _ in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    power = a.copy()
    for _ in range(1, g.n_vertices + 1, 2):
        if np.trace(power) > 0:
            return True
        power = np.clip(power @ a @ a, 0, 1)  # clip keeps entries from overflowing
    return False


def random_weighted_graph(rng: np.random.Generator, n: int, p: float) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.25, 4.0))))
    return WeightedGraph(n, tuple(edges))


def gauss_hermite_expect(f, nodes: int = 201) -> float:
    """E f(X) for standard normal X by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return float((w * f(x)).sum() / math.sqrt(2.0 * math.pi))


def shifted_log_gap_series(a: float) -> float:
    """log(1 + a^2) - E log((X+a)^2) for standard normal X, by series.

    (X+a)^2 is noncentral chi-square with one degree of freedom and
    noncentrality a^2, which is a Poisson mixture of central chi-squares:
    given J ~ Poisson(lam), lam = a^2/2, it is chi-square with 1 + 2J degrees
    of freedom, whose mean log is log 2 + psi(1/2 + J). Hence

        E log((X+a)^2) = log 2 + sum_j e^-lam lam^j / j! * psi(1/2 + j),
        psi(1/2 + j) = -gamma - 2 log 2 + 2 sum_{i=1..j} 1/(2i-1).

    The weights are formed in log space, since e^-lam alone underflows once
    a > 38, and the sum runs past the mode until they underflow to zero;
    dividing by the summed weights cancels their common rounding error.
    """
    lam = 0.5 * a * a
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    psi = -EULER_GAMMA - 2.0 * math.log(2.0)  # psi(1/2)
    weights, terms = [], []
    j = 0
    while True:
        w = math.exp(-lam - math.lgamma(j + 1.0) + (j * log_lam if j else 0.0))
        if w == 0.0 and j > lam:
            break
        weights.append(w)
        terms.append(w * psi)
        j += 1
        psi += 2.0 / (2 * j - 1)
    mean_log = math.log(2.0) + math.fsum(terms) / math.fsum(weights)
    return math.log1p(a * a) - mean_log


def stream_oracle(seed: int, first_stream: int, n_streams: int, blocks) -> np.ndarray:
    """(n_streams, 2 len(blocks)) normals of the variate stream, whole arrays at a time.

    Stream i has key splitmix64(seed + (i + 1) golden). The uniform at position p
    is the top 53 bits of splitmix64(key + p golden), centred in their cell. Normals
    2q and 2q + 1 are Box-Muller on the uniforms at positions 2q + 1 and 2q + 2.
    """
    golden = np.uint64(0x9E3779B97F4A7C15)

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    idx = np.arange(first_stream, first_stream + n_streams, dtype=np.uint64)
    keys = mix(np.uint64(seed) + (idx + np.uint64(1)) * golden)
    pos = 2 * np.asarray(blocks, dtype=np.uint64)[:, None] + np.arange(1, 3, dtype=np.uint64)
    bits = mix(keys[:, None] + (pos.ravel() * golden)[None, :])
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = (2.0 * math.pi) * u[:, 1::2]
    z = np.empty_like(u)
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z


def estimate_with_samples(g: WeightedGraph, t: float, k: int, seed: int, **kwargs):
    """(est, per_sample): one real estimate_log_phi_tilde call, at any thread count, and
    its log-determinants in sample order, recorded by wrapping
    estimator._batch for that call. The estimator keeps no samples of its own."""
    batch, seen = estimator._batch, {}

    def record(plan, t, seed, start, count):
        seen[start] = (out := batch(plan, t, seed, start, count))[0]
        return out

    estimator._batch = record
    try:
        est = estimator.estimate_log_phi_tilde(g, t, k, seed, **kwargs)
    finally:
        estimator._batch = batch
    return est, np.concatenate([seen[start] for start in sorted(seen)])


def exact_reduction(per_sample: np.ndarray) -> tuple[float, float]:
    """(mean_log, std_err) of the samples from exact rationals, each rounded once.

    The mean is the exact sum over the count; std_err is sqrt(var / k) of the
    exact unbiased variance sum (x - mean)^2 / (k - 1), and 0 at k = 1.
    """
    x = [Fraction(v) for v in per_sample.tolist()]
    k, mean = len(x), sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / (k - 1) if k > 1 else Fraction(0)
    return float(mean), math.sqrt(float(var / k))


def exact_det(matrix) -> Fraction:
    """det of a square matrix of doubles or Fractions, exactly.

    Scaled by the least common denominator of its entries the matrix is an
    integer one, whose determinant Bareiss's fraction-free elimination gives
    exactly: every division in it is exact.
    """
    rows = [[Fraction(x) for x in row] for row in np.asarray(matrix, dtype=object).tolist()]
    n = len(rows)
    scale = math.lcm(*(x.denominator for row in rows for x in row), 1)
    a = [[int(x * scale) for x in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[-1][-1] if n else 1, scale**n)


def exact_log(r: Fraction) -> float:
    """log r of a positive rational, to about one rounding: r = f 2^e with f in [1/2, 2)."""
    e = r.numerator.bit_length() - r.denominator.bit_length()
    f = r / 2**e if e >= 0 else r * 2**-e
    return math.log(float(f)) + e * math.log(2.0)
