"""Weighted graphs, file parsing, skew-symmetric edge templates, components, bipartition.

Vertex ids are 1-based in files and 0-based everywhere else. All containers
are immutable after construction and safe to share between threads; a graph
keeps its neighbor lists and components once they are found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphFormatError(ValueError):
    """A graph file or edge list violates the input contract.

    edge is the 0-based index of the first bad edge of a WeightedGraph, else None.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    edges holds (u, v, weight) triples with 0-based endpoints, in the order
    they were supplied (file order survives a parse/serialize round trip).
    """

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        """The only check of the edge rules: range, self-loop, duplicate and weight, in
        that order on each edge; the first bad edge raises, with its index."""
        n, seen = self.n_vertices, set()
        if n < 1:
            raise GraphFormatError("vertex count must be at least 1")
        for at, (u, v, w) in enumerate(self.edges):
            key = (u, v) if u < v else (v, u)
            if not (0 <= u < n and 0 <= v < n):
                msg = f"vertex id out of range: edge ({u + 1}, {v + 1}) on {n} vertices"
            elif u == v:
                msg = f"self-loop at vertex {u + 1}"
            elif key in seen:
                msg = f"duplicate edge ({key[0] + 1}, {key[1] + 1})"
            elif not (math.isfinite(w) and w > 0.0):
                msg = f"non-positive or non-finite weight {w!r} on edge ({u + 1}, {v + 1})"
            else:
                seen.add(key)
                continue
            raise GraphFormatError(msg, at)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def max_weight(self) -> float:
        return max((w for _, _, w in self.edges), default=0.0)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], Bipartition | None], ...]:
        """The connected components that hold an edge, in order of least vertex.

        Each is its vertex tuple in breadth-first order from the least vertex,
        with that search's two-coloring (sides ascending, left not larger), or
        None when the component has an odd cycle. Built once, by the graph's only BFS.
        """
        color = [-1] * self.n_vertices
        nbrs = self.adjacency
        out = []
        for start in range(self.n_vertices):
            if color[start] != -1 or not nbrs[start]:
                continue
            color[start], found, odd = 0, [start], False
            for u in found:  # found grows while it is read: breadth-first order
                for v, _ in nbrs[u]:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        found.append(v)
                    odd = odd or color[v] == color[u]
            sides = [tuple(sorted(v for v in found if color[v] == c)) for c in (0, 1)]
            sides.sort(key=len)
            out.append((tuple(found), None if odd else Bipartition(*sides)))
        return tuple(out)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Each vertex's (neighbor, weight) pairs, ascending vertex order. Built once."""
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n_vertices)]
        for u, v, w in self.edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        return tuple(tuple(sorted(lst)) for lst in nbrs)


@dataclass(frozen=True, eq=False)
class SkewAdjacency:
    """Dense antisymmetric edge template: entry (i, j) = sqrt(weight) for i < j."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of a bipartite graph: every edge joins left to right.

    left (size m) is never larger than right (size n); both are ascending.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.left)

    @property
    def n(self) -> int:
        return len(self.right)


def parse_graph(text: str) -> WeightedGraph:
    """Parse the plain-text graph format.

    First non-comment line is "N M"; then exactly M lines "u v w" with
    1-based vertex ids and a positive decimal weight. Lines starting with
    '#' are comments. This reads the syntax only; WeightedGraph checks the
    edges, and its first bad edge is named by its line number, as is any
    malformed line.
    """
    lines = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, line) for no, line in lines if line and not line.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file: missing 'N M' header")
    (header_no, header), edge_lines = lines[0], lines[1:]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {header_no}: malformed header {header!r}, expected 'N M'")
    try:
        n_vertices, n_edges = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(
            f"line {header_no}: malformed header {header!r}, expected two integers"
        ) from None
    if n_vertices < 1 or n_edges < 0:
        raise GraphFormatError(f"line {header_no}: malformed header counts {header!r}")
    if len(edge_lines) != n_edges:
        raise GraphFormatError(
            f"header promises {n_edges} edges but file has {len(edge_lines)} edge lines"
        )

    edges: list[tuple[int, int, float]] = []
    for no, line in edge_lines:
        try:
            u, v, w = line.split()
            edges.append((int(u) - 1, int(v) - 1, float(w)))
        except ValueError:
            raise GraphFormatError(f"line {no}: expected 'u v w', got {line!r}") from None
    try:
        return WeightedGraph(n_vertices, tuple(edges))
    except GraphFormatError as exc:  # edge exc.edge is the first bad line in file order
        raise GraphFormatError(f"line {edge_lines[exc.edge][0]}: {exc}", exc.edge) from None


def serialize_graph(g: WeightedGraph) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    out = [f"{g.n_vertices} {g.n_edges}"]
    for u, v, w in g.edges:
        out.append(f"{u + 1} {v + 1} {w:.17g}")
    return "\n".join(out) + "\n"


def skew_adjacency(g: WeightedGraph) -> SkewAdjacency:
    """Antisymmetric template: sqrt(weight) above the diagonal on edges."""
    a = np.zeros((g.n_vertices, g.n_vertices))
    for u, v, w in g.edges:
        i, j = (u, v) if u < v else (v, u)
        root = np.sqrt(w)
        a[i, j] = root
        a[j, i] = -root
    return SkewAdjacency(g.n_vertices, a)


@dataclass(frozen=True)
class WeightSums:
    """The certificate's weight sums of a graph (weight_sums).

    heaviest is W = sum_v max_j w_vj. cover holds 2 c_v per vertex for a fractional
    vertex cover c (c_u + c_v >= w_uv on every edge): c_v = max_j w_vj / 2 on a
    component with an odd cycle; on a bipartite one, c_v = max_j w_vj on the side
    whose sum is smaller and 0 on the other. parts holds (2 nu_C, n_C) per component
    of g.components, nu_C = sum_{v in C} c_v <= W_C / 2, and cover_sum is
    sum_C 2 nu_C. Each sum is rounded once (math.fsum), or is inf past the largest
    double; an isolated vertex adds 0. bipartite is whether g has no odd cycle.
    """

    heaviest: float
    cover_sum: float
    parts: tuple[tuple[float, int], ...]
    cover: tuple[float, ...]
    bipartite: bool


def weight_sums(g: WeightedGraph) -> WeightSums:
    """W, the cover and its per-component sums 2 nu_C of g, and whether g is bipartite."""
    heaviest = [max((w for _, w in nbrs), default=0.0) for nbrs in g.adjacency]
    cover = heaviest.copy()
    for _, bip in g.components:
        if bip is not None:  # either side covers every edge of C: take the lighter one
            sides = sorted((bip.left, bip.right), key=lambda side: _sum(heaviest[v] for v in side))
            for side, scale in zip(sides, (2.0, 0.0)):
                for v in side:
                    cover[v] = scale * heaviest[v]
    parts = tuple((_sum(cover[v] for v in verts), len(verts)) for verts, _ in g.components)
    bipartite = all(bip is not None for _, bip in g.components)
    return WeightSums(_sum(heaviest), _sum(cover), parts, tuple(cover), bipartite)


def _sum(terms) -> float:
    """The exact sum of nonnegative doubles rounded once, or inf past the largest double."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def bipartition(g: WeightedGraph) -> Bipartition | None:
    """Two-color the graph, or return None when an odd cycle exists.

    The left side joins the smaller side of every component; isolated
    vertices go right, so len(left) <= len(right).
    """
    bips = [bip for _, bip in g.components]
    if None in bips:
        return None
    left = tuple(sorted(v for bip in bips for v in bip.left))
    return Bipartition(left, tuple(sorted(set(range(g.n_vertices)).difference(left))))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = tuple(
        (u, v, float(weight)) for u in range(n) for v in range(u + 1, n)
    )
    return WeightedGraph(n, edges)


def complete_bipartite_graph(m: int, n: int, weight: float = 1.0) -> WeightedGraph:
    edges = tuple(
        (u, m + v, float(weight)) for u in range(m) for v in range(n)
    )
    return WeightedGraph(m + n, edges)


def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = tuple((i, i + 1, float(weight)) for i in range(n - 1))
    return WeightedGraph(n, edges)
