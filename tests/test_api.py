import sinrcov as sc

PUBLIC_NAMES = [
    "CoverageCurve", "EstimatorError", "EstimatorSettings",
    "ModelValidityError", "NetworkConfig", "ProbModelParams",
    "QuadratureError", "TailErrorReport", "ThresholdGrid", "__version__",
    "convergence_slope", "empirical_coverage",
    "expected_tail_truncation_error", "hybrid_coverage",
    "interference_moment_coefficient", "prob_model_coverage", "sg_coverage",
    "tail_error_report", "tail_integral_batch",
]


def test_public_names_resolve():
    assert sorted(sc.__all__) == sorted(PUBLIC_NAMES)
    for name in sc.__all__:
        assert getattr(sc, name) is not None
