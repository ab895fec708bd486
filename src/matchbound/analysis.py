"""Gaussian log-moment constants and the per-vertex gap sweep.

The worst-case per-vertex gap constant is c1 = -E log(X^2) for standard
normal X, which equals Euler-Mascheroni + log 2. The shifted variant
log(1+a^2) - E log((X+a)^2) is a series: (X+a)^2 is noncentral chi-square
with one degree of freedom and noncentrality a^2, a Poisson(a^2/2) mixture
of central chi-squares with 1 + 2J degrees of freedom, and the mean log of
chi-square with 1 + 2j degrees of freedom is log 2 + psi(1/2 + j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import RngStream, derive_seed, estimate_log_phi_tilde, log_gap_bound
from .exact import complete_bipartite_counts, matching_counts
from .graphs import WeightedGraph, complete_bipartite_graph, heaviest_weight_sums

EULER_GAMMA = 0.5772156649015329
_PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)  # psi(1/2)


def _mean_psi_poisson(lam: float) -> float:
    """E psi(1/2 + J) for J ~ Poisson(lam).

    The weights run outward from the mode by the ratio recurrence, starting
    from 1 there, and are normalized by their sum, so no weight underflows
    (e^-lam alone does once lam > 745). psi is summed by fsum at the mode
    and stepped from it by psi(1/2 + j) - psi(1/2 + j - 1) = 2 / (2j - 1).
    A walk stops at a relative weight below 1e-20: the rest of that tail is
    too light to move the mean in double precision.
    """
    mode = math.floor(lam)
    psi_mode = _PSI_HALF + 2.0 * math.fsum(1.0 / (2 * i - 1) for i in range(1, mode + 1))
    weights, offsets = [1.0], [0.0]  # offsets are psi(1/2 + j) - psi_mode
    j, w, d = mode, 1.0, 0.0
    while True:
        j += 1
        w *= lam / j
        if w < 1e-20:
            break
        d += 2.0 / (2 * j - 1)
        weights.append(w)
        offsets.append(d)
    j, w, d = mode, 1.0, 0.0
    while j > 0:
        w *= j / lam
        d -= 2.0 / (2 * j - 1)
        j -= 1
        if w < 1e-20:
            break
        weights.append(w)
        offsets.append(d)
    shift = math.fsum(w * d for w, d in zip(weights, offsets)) / math.fsum(weights)
    return psi_mode + shift


def c1_constant() -> float:
    """-E log(X^2) = Euler-Mascheroni + log 2 = 1.270362845..."""
    return EULER_GAMMA + math.log(2.0)


def gaussian_log_gap(a: float) -> float:
    """log(1 + a^2) - E log((X+a)^2): the log-moment gap of a shifted normal.

    Decreasing in a >= 0, from c1_constant() at a = 0 toward 0. With u = 1/a^2
    it expands as 2u + u^2 + (16/3) u^3 + 26 u^4 + 189.2 u^5 + ... (log(1 + u)
    less the even moments E X^2m = (2m - 1)!! of 2 E log(1 + X/a)). From a = 100
    on it is that expansion to u^4, whose next term is below 1e-14 of the value;
    the series, whose cost grows as a^2 and whose terms cancel to a relative
    error near 1e-15 a^2, serves below.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError("a must be finite and nonnegative")
    if a >= 100.0:
        u = (1.0 / a) ** 2  # 1/a first: a^2 overflows past 1.3e154
        return u * (2.0 + u * (1.0 + u * (16.0 / 3.0 + 26.0 * u)))
    return math.log1p(a * a) - math.log(2.0) - _mean_psi_poisson(0.5 * a * a)


@dataclass(frozen=True)
class GapSweepRow:
    """One complete-bipartite benchmark point: estimate vs exact per vertex."""

    m: int
    n: int
    t: float
    amplitude_lo: float  # sqrt of smallest edge weight
    amplitude_hi: float  # sqrt of largest edge weight
    samples: int
    estimate_per_vertex: float
    exact_per_vertex: float
    gap_per_vertex: float
    std_err_per_vertex: float
    gap_bound: float  # sum_C min(W_C / 2t, n_C c1) / N (estimator.log_gap_bound)


def optimality_sweep(
    sides: list[int | tuple[int, int]],
    t: float,
    weight_lo: float,
    weight_hi: float,
    seed: int,
    samples_per_point: int,
    *,
    threads: int | None = None,
) -> list[GapSweepRow]:
    """Per-vertex gap between exact and estimated log-values on K_{m,n}.

    A bare integer side means the square graph K_{n,n}. Equal weight bounds
    use the uniform closed-form count; distinct bounds draw each edge
    weight uniformly from [weight_lo, weight_hi] and count it exactly with
    matching_counts, whose table cap bounds the sides. Gaps trend to zero
    as the sides grow.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not (0 < weight_lo <= weight_hi):
        raise ValueError("need 0 < weight_lo <= weight_hi")
    c1 = c1_constant()
    rows = []
    for index, side in enumerate(sides):
        m, n = (side, side) if isinstance(side, int) else side
        if m > n:
            m, n = n, m
        if m < 1:
            raise ValueError("sides must be at least 1")
        row_seed = derive_seed(seed, index)
        if weight_lo == weight_hi:
            g = complete_bipartite_graph(m, n, weight_hi)
            exact_log = complete_bipartite_counts(m, n, weight_hi).log_eval(t)
        else:
            span = weight_hi - weight_lo
            picks = _weight_draws(row_seed, m * n)
            edges = tuple(
                (i, m + j, weight_lo + span * picks[i * n + j])
                for i in range(m)
                for j in range(n)
            )
            g = WeightedGraph(m + n, edges)
            exact_log = matching_counts(g).log_eval(t)
        est = estimate_log_phi_tilde(g, t, samples_per_point, row_seed, threads=threads)
        n_vertices = m + n
        estimate_pv = est.mean_log / n_vertices
        exact_pv = exact_log / n_vertices
        rows.append(
            GapSweepRow(
                m=m,
                n=n,
                t=t,
                amplitude_lo=math.sqrt(weight_lo),
                amplitude_hi=math.sqrt(weight_hi),
                samples=samples_per_point,
                estimate_per_vertex=estimate_pv,
                exact_per_vertex=exact_pv,
                gap_per_vertex=exact_pv - estimate_pv,
                std_err_per_vertex=est.std_err / n_vertices,
                gap_bound=log_gap_bound(heaviest_weight_sums(g)[1], t, c1) / n_vertices,
            )
        )
    return rows


def _weight_draws(seed: int, count: int) -> list[float]:
    return [float(u) for u in RngStream(seed, 0).uniforms(count)]
