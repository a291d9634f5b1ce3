"""Autocorrelation-robust F-type tests of linear restrictions.

The pieces: ``model`` describes the regression problem and the AR(1)
covariance family, ``kernels`` and ``bandwidth`` the smoothing choices,
``prewhiten`` the VAR-prewhitened covariance estimator with its typed
undefinedness outcomes, ``testing`` the statistic and the
artificial-regressor adjustment, ``diagnostics`` the design breakdown
verdicts, and ``montecarlo`` critical-value calibration and size/power
studies.
"""
from .bandwidth import (
    RULE_NAMES,
    AndrewsRule,
    BandwidthOutcome,
    FixedBRule,
    NeweyWestRule,
    default_rule,
)
from .diagnostics import (
    INCONCLUSIVE,
    POSITIVE_UNADJUSTED,
    POWER_ZERO,
    SIZE_AT_LEAST_HALF,
    SIZE_ONE,
    SIZE_ONE_SPAN_CASE,
    TRIVIAL_BREAKDOWN,
    DiagnosticsReport,
    diagnose,
)
from .kernels import (
    BARTLETT,
    PARZEN,
    QUADRATIC_SPECTRAL,
    KernelSpec,
    get_kernel,
    kernel_names,
)
from .model import (
    AR1Grid,
    RegressionProblem,
    alternating_vector,
    constant_vector,
    null_point,
)
from .montecarlo import (
    DEFAULT_RHO_GRID,
    CalibrationNotApplicableError,
    CalibrationResult,
    CurvePoint,
    McConfig,
    SizePowerCurve,
    calibrate_critical_value,
    power_curve,
    simulate_statistics,
)
from .prewhiten import (
    BANDWIDTH_UNDEFINED,
    POSITIVE_DEFINITE,
    RECOLOR_SINGULAR,
    SINGULAR_NONNEG,
    VAR_RANK_DEFICIENT,
    ZERO,
    EstimatorConfig,
    OmegaEngine,
    OmegaOutcome,
    assemble_omega,
)
from .testing import (
    REASON_ADJUSTMENT_UNNECESSARY,
    REASON_HYPOTHESIS_INVOLVES_INTERCEPT,
    AdjustedProblem,
    AdjustmentNotApplicableError,
    AugmentationImpossibleError,
    ScenarioSelection,
    TestEngine,
    TestResult,
    adjusted_statistic,
    build_adjusted,
    select_scenario,
    test_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "AR1Grid",
    "AdjustedProblem",
    "AdjustmentNotApplicableError",
    "AndrewsRule",
    "AugmentationImpossibleError",
    "BANDWIDTH_UNDEFINED",
    "BARTLETT",
    "BandwidthOutcome",
    "CalibrationNotApplicableError",
    "CalibrationResult",
    "CurvePoint",
    "DEFAULT_RHO_GRID",
    "DiagnosticsReport",
    "EstimatorConfig",
    "FixedBRule",
    "INCONCLUSIVE",
    "KernelSpec",
    "McConfig",
    "NeweyWestRule",
    "OmegaEngine",
    "OmegaOutcome",
    "PARZEN",
    "POSITIVE_DEFINITE",
    "POSITIVE_UNADJUSTED",
    "POWER_ZERO",
    "QUADRATIC_SPECTRAL",
    "REASON_ADJUSTMENT_UNNECESSARY",
    "REASON_HYPOTHESIS_INVOLVES_INTERCEPT",
    "RECOLOR_SINGULAR",
    "RULE_NAMES",
    "RegressionProblem",
    "SINGULAR_NONNEG",
    "SIZE_AT_LEAST_HALF",
    "SIZE_ONE",
    "SIZE_ONE_SPAN_CASE",
    "ScenarioSelection",
    "SizePowerCurve",
    "TRIVIAL_BREAKDOWN",
    "TestEngine",
    "TestResult",
    "VAR_RANK_DEFICIENT",
    "ZERO",
    "adjusted_statistic",
    "alternating_vector",
    "assemble_omega",
    "build_adjusted",
    "calibrate_critical_value",
    "constant_vector",
    "default_rule",
    "diagnose",
    "get_kernel",
    "kernel_names",
    "null_point",
    "power_curve",
    "select_scenario",
    "simulate_statistics",
    "test_statistic",
]
