"""Bootstrap multiple contrast tests for covariate-adjusted means.

Simultaneous tests of contrast hypotheses on the adjusted group means of a
multivariate linear model with subject-level covariates.  Inference is
based on leverage-adjusted sandwich variances with a diagonal studentizer
robust to singular outcome covariances, and on wild or parametric bootstrap
calibration of a shared local significance level that controls the
family-wise error rate.

The top level is the documented API (see the README).  The pipeline stages
live in their modules: ``design``, ``covariance``, ``bootstrap``, ``mctp``
and ``simgen``.
"""

from .bootstrap import BootstrapConfig, BootstrapDraws, run_bootstrap
from .contrasts import (
    ContrastMatrix,
    build_family,
    custom,
    dunnett,
    grand_mean,
    tukey,
    two_sample,
)
from .dataset import CsvSchema, Dataset, load_csv, validate
from .exceptions import (
    BootMctpError,
    ConfigError,
    ContrastError,
    DataError,
    EstimationError,
    SimulationError,
)
from .mctp import MctpResult, format_result_table, run_mctp
from .simgen import SimScenario, StudyResult, run_study, write_study_csv

__version__ = "0.1.0"

__all__ = [
    "BootMctpError",
    "BootstrapConfig",
    "BootstrapDraws",
    "ConfigError",
    "ContrastError",
    "ContrastMatrix",
    "CsvSchema",
    "DataError",
    "Dataset",
    "EstimationError",
    "MctpResult",
    "SimScenario",
    "SimulationError",
    "StudyResult",
    "build_family",
    "custom",
    "dunnett",
    "format_result_table",
    "grand_mean",
    "load_csv",
    "run_bootstrap",
    "run_mctp",
    "run_study",
    "tukey",
    "two_sample",
    "validate",
    "write_study_csv",
]
