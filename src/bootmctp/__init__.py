"""Bootstrap multiple contrast tests for covariate-adjusted means.

Simultaneous tests of contrast hypotheses on the adjusted group means of a
multivariate linear model with subject-level covariates.  Inference is
based on leverage-adjusted sandwich variances with a diagonal studentizer
robust to singular outcome covariances, and on wild or parametric bootstrap
calibration of a shared local significance level that controls the
family-wise error rate.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapDraws,
    run_bootstrap,
    save_draws_csv,
)
from .contrasts import (
    ContrastMatrix,
    build_family,
    custom,
    dunnett,
    grand_mean,
    tukey,
    two_sample,
)
from .covariance import (
    CovarianceEstimate,
    groupwise_cov,
    hc4_weights,
    psd_sqrt,
    sandwich,
)
from .dataset import CsvSchema, Dataset, ValidationReport, load_csv, validate
from .design import (
    DesignMatrices,
    FitResult,
    build_design,
    fit_ols,
)
from .exceptions import (
    BootMctpError,
    ConfigError,
    ContrastError,
    DataError,
    EstimationError,
    SimulationError,
)
from .mctp import (
    ContrastOutcome,
    MctpResult,
    adjust_level,
    confidence_intervals,
    contrast_quantiles,
    format_result_table,
    local_p_values,
    run_mctp,
    test_statistics,
)
from .simgen import (
    SimScenario,
    StudyResult,
    gen_covariates,
    gen_dataset,
    run_study,
    scenario_sigma,
    standardized_errors,
    write_study_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BootMctpError",
    "BootstrapConfig",
    "BootstrapDraws",
    "ConfigError",
    "ContrastError",
    "ContrastMatrix",
    "ContrastOutcome",
    "CovarianceEstimate",
    "CsvSchema",
    "DataError",
    "Dataset",
    "DesignMatrices",
    "EstimationError",
    "FitResult",
    "MctpResult",
    "SimScenario",
    "SimulationError",
    "StudyResult",
    "ValidationReport",
    "adjust_level",
    "build_design",
    "build_family",
    "confidence_intervals",
    "contrast_quantiles",
    "custom",
    "dunnett",
    "fit_ols",
    "format_result_table",
    "gen_covariates",
    "gen_dataset",
    "grand_mean",
    "groupwise_cov",
    "hc4_weights",
    "load_csv",
    "local_p_values",
    "psd_sqrt",
    "run_bootstrap",
    "run_mctp",
    "run_study",
    "sandwich",
    "save_draws_csv",
    "scenario_sigma",
    "standardized_errors",
    "test_statistics",
    "tukey",
    "two_sample",
    "validate",
    "write_study_csv",
]
