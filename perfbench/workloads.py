"""The benchmark's workloads: graph files, estimate arguments, exact references.

Each workload is a fixed graph plus fixed (t, eps, delta, threads), so the
planned sample count k does not depend on the seed; the seed only chooses
which Gaussian draws the estimator makes. The graph reaches the program as
a file in the plain-text format `parse_graph` reads, never as an object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from matchbound.exact import (
    MatchingCounts,
    complete_bipartite_counts,
    complete_graph_counts,
    matching_counts,
)
from matchbound.graphs import WeightedGraph

# The frozen 6-vertex graph of the test suite (tests/conftest.py,
# RANDOM6_EDGES), 0-based endpoints.
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

SPARSE_COPIES = 16


def sparse_weight(c: int) -> float:
    """Edge weight of the c-th K_{2,6} copy: 0.5 + 1.5 c / 15, c = 0..15."""
    return 0.5 + 1.5 * c / (SPARSE_COPIES - 1)


def complete_edges(n: int) -> tuple[int, list[tuple[int, int, float]]]:
    return n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]


def sparse_edges() -> tuple[int, list[tuple[int, int, float]]]:
    """16 disjoint K_{2,6}: copy c has vertices 8c..8c+7, sides 2 and 6."""
    edges = []
    for c in range(SPARSE_COPIES):
        base, w = 8 * c, sparse_weight(c)
        edges += [(base + u, base + 2 + v, w) for u in range(2) for v in range(6)]
    return 8 * SPARSE_COPIES, edges


def random6_edges() -> tuple[int, list[tuple[int, int, float]]]:
    return 6, list(RANDOM6_EDGES)


def graph_text(n: int, edges: list[tuple[int, int, float]]) -> str:
    """The graph file: 'N M' then one 1-based 'u v w' line per edge.

    Written here rather than by `matchbound.graphs.serialize_graph`, so the
    benchmark's inputs stay fixed whatever a change does to the program.
    """
    lines = [f"{n} {len(edges)}"] + [f"{u + 1} {v + 1} {w!r}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sparse_reference():
    """The matching polynomial of a disjoint union is the product of its
    parts' polynomials, so the counts convolve."""
    counts = [1.0]
    for c in range(SPARSE_COPIES):
        part = complete_bipartite_counts(2, 6, sparse_weight(c)).counts
        counts = _convolve(counts, list(part))
    return MatchingCounts(8 * SPARSE_COPIES, tuple(counts))


@dataclass(frozen=True)
class Workload:
    name: str
    edges: Callable[[], tuple[int, list[tuple[int, int, float]]]]
    reference: Callable[[], MatchingCounts]  # exact counts: the oracle, never timed
    t: float
    eps: float
    delta: float
    threads: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense", lambda: complete_edges(64), lambda: complete_graph_counts(64),
            1.0, 0.5, 0.1, 2,
            "K64 with unit weights: one component, every pair an edge, so the dense "
            "factorization dominates; per-edge and per-component changes must show no change",
        ),
        Workload(
            "sparse", sparse_edges, sparse_reference, 1.0, 1.0, 0.1, 1,
            "16 disjoint K_{2,6} with unequal weights on one thread: variate generation and "
            "gather dominate and components can be split; the single-threaded baseline",
        ),
        Workload(
            "tiny", random6_edges, lambda: matching_counts(WeightedGraph(6, RANDOM6_EDGES)),
            1.0, 0.02, 0.1, 2,
            "the frozen 6-vertex random6 graph at about 10^6 samples: per-batch Python "
            "overhead, the fsum reduction and the kept per-sample array dominate",
        ),
    )
}
