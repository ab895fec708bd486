"""Cold-start probe, run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py GRAPH_FILE SRC_DIR

Imports matchbound from SRC_DIR and does the non-sampling preparation of
one graph file: parse_graph, skew_adjacency, bipartition and c1_constant.
Prints the seconds that took.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[2])

import matchbound  # noqa: E402
from matchbound.analysis import c1_constant  # noqa: E402
from matchbound.graphs import bipartition, parse_graph, skew_adjacency  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    graph = parse_graph(fh.read())
skew_adjacency(graph)
bipartition(graph)
c1_constant()
print(repr(time.perf_counter() - started))
