"""Adaptive clustering-cost estimation and clustering over small weighted samples."""

from .core import (
    CentroidSet,
    MetricSpace,
    WeightedPointSet,
    cost,
    nearest,
    pairwise,
)
from .errors import DataFormatError, UnsupportedSpaceError
from .kmeanspp import KmeansPPTrace, run_trace
from .lloyd import base_cluster, lloyd_step
from .oracle import OracleState, build, build_feedback, feedback_query, query
from .probabilities import One2AllProbabilities, one2all_probs, sweet_spot
from .sampling import CoordinatedSample, draw, estimate_cost, point_uniforms
from .wrapper import WrapperReport
from .wrapper import run as cluster_adaptive

__version__ = "0.1.0"

__all__ = [
    "CentroidSet",
    "CoordinatedSample",
    "DataFormatError",
    "KmeansPPTrace",
    "MetricSpace",
    "One2AllProbabilities",
    "OracleState",
    "UnsupportedSpaceError",
    "WeightedPointSet",
    "WrapperReport",
    "base_cluster",
    "build",
    "build_feedback",
    "cluster_adaptive",
    "cost",
    "draw",
    "estimate_cost",
    "feedback_query",
    "lloyd_step",
    "nearest",
    "one2all_probs",
    "pairwise",
    "point_uniforms",
    "query",
    "run_trace",
    "sweet_spot",
]
