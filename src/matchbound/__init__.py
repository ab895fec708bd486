"""Certified lower bounds for weighted matching polynomials.

The estimator averages log-determinants of randomized antisymmetric
matrices; exp of the average lower-bounds the matching polynomial at the
requested argument, with an explicit additive gap in log scale.
"""

from .analysis import GapSweepRow, c1_constant, gaussian_log_gap, optimality_sweep
from .estimator import (
    BoundsReport,
    EstimateResult,
    FprasPlan,
    RngStream,
    bounds_report,
    estimate_log_phi_tilde,
    log_gap_bound,
    plan_samples,
    sample_skew,
    tail_bound,
)
from .exact import (
    GraphTooLargeError,
    MatchingCounts,
    complete_bipartite_counts,
    complete_graph_counts,
    matching_counts,
)
from .graphs import (
    Bipartition,
    GraphFormatError,
    SkewAdjacency,
    WeightedGraph,
    WeightSums,
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    skew_adjacency,
    weight_sums,
)
from .linalg import (
    BipartiteSample,
    NonPositiveDeterminantError,
    SkewSample,
    bipartite_block,
    log_det_bipartite,
    log_det_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteSample",
    "Bipartition",
    "BoundsReport",
    "EstimateResult",
    "FprasPlan",
    "GapSweepRow",
    "GraphFormatError",
    "GraphTooLargeError",
    "MatchingCounts",
    "NonPositiveDeterminantError",
    "RngStream",
    "SkewAdjacency",
    "SkewSample",
    "WeightedGraph",
    "WeightSums",
    "bipartite_block",
    "bipartition",
    "bounds_report",
    "c1_constant",
    "complete_bipartite_counts",
    "complete_bipartite_graph",
    "complete_graph",
    "complete_graph_counts",
    "estimate_log_phi_tilde",
    "gaussian_log_gap",
    "log_det_bipartite",
    "log_det_shifted",
    "log_gap_bound",
    "matching_counts",
    "optimality_sweep",
    "parse_graph",
    "path_graph",
    "plan_samples",
    "sample_skew",
    "serialize_graph",
    "skew_adjacency",
    "tail_bound",
    "weight_sums",
]
