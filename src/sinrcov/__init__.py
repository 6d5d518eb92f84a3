"""SINR coverage probability toolkit for Poisson cellular downlinks."""

from .error_analysis import (
    TailErrorReport,
    convergence_slope,
    expected_tail_truncation_error,
    tail_error_report,
)
from .estimators import (
    CoverageCurve,
    EstimatorError,
    EstimatorSettings,
    ModelValidityError,
    ProbModelParams,
    ThresholdGrid,
    empirical_coverage,
    hybrid_coverage,
    interference_moment_coefficient,
    prob_model_coverage,
    sg_coverage,
)
from .geometry import NetworkConfig
from .quadrature import QuadratureError, tail_integral_batch

__version__ = "0.1.0"

__all__ = [
    "CoverageCurve",
    "EstimatorError",
    "EstimatorSettings",
    "ModelValidityError",
    "NetworkConfig",
    "ProbModelParams",
    "QuadratureError",
    "TailErrorReport",
    "ThresholdGrid",
    "convergence_slope",
    "empirical_coverage",
    "expected_tail_truncation_error",
    "hybrid_coverage",
    "interference_moment_coefficient",
    "prob_model_coverage",
    "sg_coverage",
    "tail_error_report",
    "tail_integral_batch",
    "__version__",
]
