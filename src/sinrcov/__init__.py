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
from .geometry import (
    NetworkConfig,
    PppRealization,
    nearest_window_distances,
    sample_ordered_distances_direct,
)
from .quadrature import (
    QuadratureError,
    tail_integral_batch,
    tail_integrand,
)
from .streams import trial_stream

__version__ = "0.1.0"

__all__ = [
    "CoverageCurve",
    "EstimatorError",
    "EstimatorSettings",
    "ModelValidityError",
    "NetworkConfig",
    "PppRealization",
    "ProbModelParams",
    "QuadratureError",
    "TailErrorReport",
    "ThresholdGrid",
    "convergence_slope",
    "empirical_coverage",
    "expected_tail_truncation_error",
    "hybrid_coverage",
    "interference_moment_coefficient",
    "nearest_window_distances",
    "prob_model_coverage",
    "sample_ordered_distances_direct",
    "sg_coverage",
    "tail_error_report",
    "tail_integral_batch",
    "tail_integrand",
    "trial_stream",
    "__version__",
]

