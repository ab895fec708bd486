"""Exact weighted matching counts for small graphs and closed forms.

The count vector phi(k) sums the weight products of all k-edge matchings;
the matching polynomial is sum_k phi(k) * t**(floor(N/2) - k). Exact
enumeration recurses on the highest-degree remaining vertex with a bitmask
memo, so it is limited to small vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import WeightedGraph

VERTEX_CAP = 24
MEMO_BUDGET = 1 << 18  # count vectors kept per invocation


class GraphTooLargeError(ValueError):
    """Exact enumeration was asked for a graph above the vertex cap."""


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

    def log_eval(self, t: float) -> float:
        """log of eval(t), max-shifted log-sum-exp over nonzero terms.

        Safe where t**(N/2) would overflow; requires t > 0.
        """
        if not t > 0:
            raise ValueError("t must be positive for log evaluation")
        n = self.n_vertices // 2
        log_t = math.log(t)
        terms = [
            math.log(c) + (n - k) * log_t
            for k, c in enumerate(self.counts)
            if c > 0.0
        ]
        top = max(terms)
        return top + math.log(math.fsum(math.exp(x - top) for x in terms))


def matching_counts(g: WeightedGraph) -> MatchingCounts:
    """Exact weighted k-matching totals for every k.

    Recursion removes the highest-degree remaining vertex v:
    phi(k, G) = phi(k, G - v) + sum_u w(v,u) * phi(k-1, G - v - u).
    Memoized on the bitmask of remaining vertices until the entry budget is
    hit (dense graphs revisit subsets; sparse ones recurse cheaply without).
    """
    if g.n_vertices > VERTEX_CAP:
        raise GraphTooLargeError(
            f"{g.n_vertices} vertices exceed the exact-enumeration cap of {VERTEX_CAP}"
        )
    nbrs = g.adjacency()
    nbr_masks = [0] * g.n_vertices
    for v in range(g.n_vertices):
        for u, _ in nbrs[v]:
            nbr_masks[v] |= 1 << u

    memo: dict[int, list[float]] = {}

    def solve(mask: int) -> list[float]:
        # returns phi(0..floor(p/2)) for the induced subgraph, p = popcount
        cached = memo.get(mask)
        if cached is not None:
            return cached
        live = mask
        best_v, best_deg = -1, -1
        v = 0
        m = live
        while m:
            if m & 1:
                deg = (nbr_masks[v] & mask).bit_count()
                if deg > best_deg:
                    best_v, best_deg = v, deg
            m >>= 1
            v += 1
        size = mask.bit_count()
        if best_deg <= 0:
            return [1.0] + [0.0] * (size // 2)

        rest = mask & ~(1 << best_v)
        out = solve(rest)[: size // 2 + 1]
        out = out + [0.0] * (size // 2 + 1 - len(out))
        for u, w in nbrs[best_v]:
            if mask >> u & 1:
                sub = solve(rest & ~(1 << u))
                for k, c in enumerate(sub):
                    if c:
                        out[k + 1] += w * c
        if len(memo) < MEMO_BUDGET:
            memo[mask] = out
        return out

    full = (1 << g.n_vertices) - 1
    return MatchingCounts(g.n_vertices, tuple(solve(full)))


def complete_graph_counts(n: int, w: float = 1.0) -> MatchingCounts:
    """Closed form for the complete graph: phi(k) = C(n, 2k) (2k-1)!! w^k."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not w > 0:
        raise ValueError("weight must be positive")
    counts = []
    for k in range(n // 2 + 1):
        pairings = 1
        for odd in range(1, 2 * k, 2):
            pairings *= odd
        counts.append(float(math.comb(n, 2 * k) * pairings) * w**k)
    return MatchingCounts(n, tuple(counts))


def complete_bipartite_counts(m: int, n: int, w: float = 1.0) -> MatchingCounts:
    """Closed form for K_{m,n}: phi(k) = C(m,k) C(n,k) k! w^k, zero past min(m,n)."""
    if m < 1 or n < 1:
        raise ValueError("side sizes must be at least 1")
    if m > n:
        raise ValueError("expected m <= n")
    if not w > 0:
        raise ValueError("weight must be positive")
    counts = []
    for k in range((m + n) // 2 + 1):
        if k <= m:
            counts.append(
                float(math.comb(m, k) * math.comb(n, k) * math.factorial(k)) * w**k
            )
        else:
            counts.append(0.0)
    return MatchingCounts(m + n, tuple(counts))
