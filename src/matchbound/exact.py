"""Exact weighted matching counts: one profile DP for any graph, and closed forms.

The count vector phi(k) sums the weight products of all k-edge matchings;
the matching polynomial is sum_k phi(k) * t**(floor(N/2) - k). The DP's
table grows with the bandwidth of a breadth-first order, not with N, and
one cap on the table bounds its memory.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph

# live DP cells, states x coefficients per state; every graph of at most 24
# vertices fits (K24 peaks at 41,226 states of 13 coefficients)
TABLE_CAP = 1 << 20


class GraphTooLargeError(ValueError):
    """Exact counts need more than TABLE_CAP table cells, or overflow a double."""


@dataclass(frozen=True)
class MatchingCounts:
    """phi(0..floor(N/2)) for a graph on n_vertices vertices.

    counts[0] is always 1; entries past the maximum matching size are 0.
    """

    n_vertices: int
    counts: tuple[float, ...]

    def __post_init__(self):
        if len(self.counts) != self.n_vertices // 2 + 1:
            raise ValueError("counts must have floor(N/2)+1 entries")

    def eval(self, t: float) -> float:
        """Polynomial value sum_k phi(k) t^(n-k) by Horner's rule."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        acc = 0.0
        for c in self.counts:
            acc = acc * t + c
        return acc

    def log_eval(self, t: float, log_scale: float = 0.0) -> float:
        """log of sum_k c^k phi(k) t^(n-k) for c = exp(log_scale): log of eval(t) by default.

        A max-shifted log-sum-exp over nonzero terms, safe where t**(N/2) or
        c^k would overflow; requires t > 0.
        """
        if not t > 0:
            raise ValueError("t must be positive for log evaluation")
        n = self.n_vertices // 2
        log_t = math.log(t)
        terms = [
            math.log(c) + k * log_scale + (n - k) * log_t
            for k, c in enumerate(self.counts)
            if c > 0.0
        ]
        top = max(terms)
        return top + math.log(math.fsum(math.exp(x - top) for x in terms))


def _finite_counts(n_vertices: int, counts: Iterable[float]) -> MatchingCounts:
    """counts padded with zeros; GraphTooLargeError if one is not a finite double."""
    try:
        values = tuple(map(float, counts))
    except OverflowError:  # an int count or a power of w past the largest double
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise GraphTooLargeError(f"a count of this {n_vertices}-vertex graph overflows a double")
    return MatchingCounts(n_vertices, values + (0.0,) * (n_vertices // 2 + 1 - len(values)))


def matching_counts(g: WeightedGraph) -> MatchingCounts:
    """Exact weighted k-matching totals for every k, by a profile DP.

    Vertices are taken in the breadth-first order of g.components, one
    component after another. Before vertex i, a state is the set of later
    vertices already matched (bit d for vertex i + d); its row holds the
    counts of the partial matchings that reach it. Vertex i is already
    matched, left unmatched, or matched to a later free neighbour u, one more
    edge of weight w(i, u). Between components the table is the empty state
    alone, so they need no convolution and an isolated vertex needs no step.
    GraphTooLargeError once it passes TABLE_CAP cells.
    """
    n, nbrs = g.n_vertices, g.adjacency
    pos = {v: i for i, v in enumerate(v for verts, _ in g.components for v in verts)}
    size = n // 2 + 1
    masks, table = [0], np.eye(1, size)
    with np.errstate(over="ignore"):  # an overflowed count raises at the end
        for i, v in enumerate(pos):  # a dict keeps its insertion order
            rows: dict[int, int] = {}  # next state -> its row in the next table
            keep = [rows.setdefault(m >> 1, len(rows)) for m in masks]
            moves = []
            for u, w in nbrs[v]:
                if pos[u] > i:
                    bits = 1 << (pos[u] - i) | 1  # v and u must both be free
                    src = [s for s, m in enumerate(masks) if not m & bits]
                    dst = [rows.setdefault((masks[s] | bits) >> 1, len(rows)) for s in src]
                    moves.append((w, src, dst))
                    if len(rows) * size > TABLE_CAP:
                        raise GraphTooLargeError(f"exact counts need over {TABLE_CAP} table cells")
            if moves or len(rows) < len(masks):  # else keep is the identity
                new = np.zeros((len(rows), size))
                np.add.at(new, keep, table)
                for w, src, dst in moves:  # one-to-one: no row repeats in dst
                    new[dst, 1:] += w * table[src, :-1]
                table = new
            masks = list(rows)
    return _finite_counts(n, table[0])


def log_polynomial(g: WeightedGraph, t: float) -> float:
    """log of g's matching polynomial at t > 0, counted on the weights divided by the largest.

    phi_{cw}(k) = c^k phi_w(k): scaled to a largest weight of 1, the counts stay
    finite where g's own would overflow, and log_eval puts c^k back in log space.
    """
    c = g.max_weight or 1.0
    scaled = WeightedGraph(g.n_vertices, tuple((u, v, w / c) for u, v, w in g.edges))
    return matching_counts(scaled).log_eval(t, math.log(c))


def complete_graph_counts(n: int, w: float = 1.0) -> MatchingCounts:
    """Closed form for the complete graph: phi(k) = C(n, 2k) (2k-1)!! w^k."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not w > 0:
        raise ValueError("weight must be positive")
    return _finite_counts(
        n, (math.comb(n, 2 * k) * math.prod(range(1, 2 * k, 2)) * w**k for k in range(n // 2 + 1))
    )


def complete_bipartite_counts(m: int, n: int, w: float = 1.0) -> MatchingCounts:
    """Closed form for K_{m,n}: phi(k) = C(m,k) n!/(n-k)! w^k, zero past min(m,n)."""
    if m < 1 or n < 1:
        raise ValueError("side sizes must be at least 1")
    if m > n:
        raise ValueError("expected m <= n")
    if not w > 0:
        raise ValueError("weight must be positive")
    return _finite_counts(m + n, (math.comb(m, k) * math.perm(n, k) * w**k for k in range(m + 1)))
