"""Adaptive clustering-cost estimation and clustering over small weighted samples."""

from .core import (
    CentroidSet,
    MetricSpace,
    WeightedPointSet,
    cost,
    distance,
    nearest,
    pairwise,
)
from .errors import DataFormatError, DegenerateCostError, UnsupportedSpaceError
from .kmeanspp import KmeansPPTrace, run_trace
from .lloyd import BaseClustererConfig, base_cluster, lloyd_step, make_base
from .oracle import OracleState, build, build_feedback, feedback_query, query
from .probabilities import (
    One2AllProbabilities,
    one2all_probs,
    sweet_spot,
    verify_dominance,
)
from .sampling import (
    CoordinatedSample,
    PpsBase,
    draw,
    estimate_cost,
    mo_pps_bruteforce,
    point_uniforms,
    pps_base,
)
from .wrapper import WrapperReport, certify, multi_sample_confirm
from .wrapper import run as cluster_adaptive

__version__ = "0.1.0"

__all__ = [
    "BaseClustererConfig",
    "CentroidSet",
    "CoordinatedSample",
    "DataFormatError",
    "DegenerateCostError",
    "KmeansPPTrace",
    "MetricSpace",
    "One2AllProbabilities",
    "OracleState",
    "PpsBase",
    "UnsupportedSpaceError",
    "WeightedPointSet",
    "WrapperReport",
    "base_cluster",
    "build",
    "build_feedback",
    "certify",
    "cluster_adaptive",
    "cost",
    "distance",
    "draw",
    "estimate_cost",
    "feedback_query",
    "lloyd_step",
    "make_base",
    "mo_pps_bruteforce",
    "multi_sample_confirm",
    "nearest",
    "one2all_probs",
    "pairwise",
    "point_uniforms",
    "pps_base",
    "query",
    "run_trace",
    "sweet_spot",
    "verify_dominance",
]
