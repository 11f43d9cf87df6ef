"""Synthetic-data generator and error-rate / power study harness.

Scenarios combine a standardized error distribution, a group covariance
pattern (shared, group-k inflated, or exactly singular), a sample-size
pattern with a multiplier, two uniform covariates with fixed regression
coefficients, and an optional mean alternative placed on the last group.
Studies run both bootstrap schemes on each simulated dataset and report
empirical global rejection rates with exact binomial confidence intervals.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .bootstrap import BootstrapConfig
from .contrasts import build_family
from .covariance import psd_sqrt
from .dataset import Dataset
from .exceptions import EstimationError, SimulationError
from .mctp import _calibrate, _fit
from ._rng import derive_seed, substream

DISTRIBUTIONS = ("normal", "t3", "chi2_3", "lognormal", "dexp")
ALTERNATIVES = ("null", "shift", "one_point", "trend")
COVARIANCES = (1, 2, 3)
SAMPLE_PATTERNS = (1, 2, 3)
SINGULAR_DIMS = (2, 3, 4)

COVARIATE_MAX_TRIES = 1000
COVARIATE_MIN_SD_FRACTION = 0.25
COVARIATE_MAX_ABS_CORR = 0.9

_SINGULAR_SIGMA = {
    2: np.array([[1.0, 0.5], [0.5, 0.25]]),
    3: np.array([[6.0, 3.0, 3.0], [3.0, 2.0, 3.0], [3.0, 3.0, 6.0]]),
    4: np.array(
        [
            [6.0, 3.0, 3.0, 3.0],
            [3.0, 6.0, 3.0, 3.0],
            [3.0, 3.0, 2.5, 3.0],
            [3.0, 3.0, 3.0, 6.0],
        ]
    ),
}


def default_nu(d: int) -> np.ndarray:
    """Default 2 x d regression coefficients (d >= 2) of the study scenarios."""
    return np.array(
        [
            [-0.5, *([1.0] * (d - 2)), -1.0],
            [1.5, *([2.0] * (d - 2)), 3.0],
        ]
    )


@dataclass(frozen=True)
class SimScenario:
    """One cell of the simulation grid."""

    k: int
    d: int
    distribution: str = "normal"
    covariance: int = 1
    sample_pattern: int = 1
    multiplier: int = 1
    contrast_family: str = "dunnett"
    alternative: str = "null"
    delta: float = 0.0

    def __post_init__(self):
        if self.k < 2 or self.d < 2:
            raise SimulationError("scenario requires k >= 2 and d >= 2")
        if self.distribution not in DISTRIBUTIONS:
            raise SimulationError(f"unknown distribution '{self.distribution}'")
        if self.covariance not in COVARIANCES:
            raise SimulationError(f"unknown covariance scenario {self.covariance}")
        if self.covariance == 3 and self.d not in SINGULAR_DIMS:
            raise SimulationError(
                f"singular covariance is only defined for d in {SINGULAR_DIMS}"
            )
        if self.sample_pattern not in SAMPLE_PATTERNS:
            raise SimulationError(f"unknown sample pattern {self.sample_pattern}")
        if self.multiplier < 1:
            raise SimulationError("sample-size multiplier must be >= 1")
        if self.alternative not in ALTERNATIVES:
            raise SimulationError(f"unknown alternative '{self.alternative}'")
        if (self.delta == 0.0) != (self.alternative == "null"):
            raise SimulationError(
                "delta must be 0 exactly for the null alternative and positive "
                "otherwise"
            )
        if self.delta < 0:
            raise SimulationError("delta must be >= 0")

    @property
    def sample_sizes(self) -> tuple[int, ...]:
        base = [10] * self.k
        if self.sample_pattern == 2:
            base[0] = 20
        elif self.sample_pattern == 3:
            base[-1] = 20
        return tuple(self.multiplier * m for m in base)

    def group_means(self) -> np.ndarray:
        mu = np.zeros((self.k, self.d))
        if self.alternative == "shift":
            mu[-1] = self.delta
        elif self.alternative == "one_point":
            mu[-1, 0] = self.delta
        elif self.alternative == "trend":
            mu[-1] = self.delta / np.arange(1, self.d + 1)
        return mu


@dataclass(frozen=True)
class StudyResult:
    """Empirical rejection rate (percent) for one scenario and method."""

    scenario: SimScenario
    method: str
    rate: float
    ci_lower: float
    ci_upper: float
    runs: int
    B: int
    seed: int


def standardized_errors(distribution: str, rows: int, d: int,
                        rng: np.random.Generator) -> np.ndarray:
    """rows x d matrix of i.i.d. entries with mean 0 and variance 1."""
    if distribution == "normal":
        return rng.standard_normal((rows, d))
    if distribution == "t3":
        return rng.standard_t(3, size=(rows, d)) / math.sqrt(3.0)
    if distribution == "chi2_3":
        return (rng.chisquare(3, size=(rows, d)) - 3.0) / math.sqrt(6.0)
    if distribution == "lognormal":
        mean = math.exp(0.5)
        sd = math.sqrt(math.e**2 - math.e)
        return (rng.lognormal(0.0, 1.0, size=(rows, d)) - mean) / sd
    if distribution == "dexp":
        return rng.laplace(0.0, 1.0, size=(rows, d)) / math.sqrt(2.0)
    raise SimulationError(f"unknown distribution '{distribution}'")


def scenario_sigma(covariance: int, d: int, k: int):
    """Group covariances and their symmetric square roots for a scenario.

    1: all groups share unit variances with 0.5 cross-correlation;
    2: like 1 but the last group's variances are doubled;
    3: the fixed exactly-singular matrices (d in {2, 3, 4}), all groups.
    """
    compound = np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))
    if covariance == 1:
        sigmas = [compound.copy() for _ in range(k)]
    elif covariance == 2:
        sigmas = [compound.copy() for _ in range(k - 1)]
        sigmas.append(2.0 * np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d)))
    elif covariance == 3:
        if d not in _SINGULAR_SIGMA:
            raise SimulationError(
                f"singular covariance is only defined for d in {SINGULAR_DIMS}"
            )
        sigmas = [_SINGULAR_SIGMA[d].copy() for _ in range(k)]
    else:
        raise SimulationError(f"unknown covariance scenario {covariance}")
    roots = [psd_sqrt(S) for S in sigmas]
    return sigmas, roots


def _covariate_targets(rows: int) -> tuple[float, float]:
    # theoretical sds of the two covariate columns (second is a mixture)
    sd1 = 20.0 / math.sqrt(12.0)
    w = math.ceil(rows / 2) / rows
    m1, v1 = 2.5, 25.0 / 12.0
    m2, v2 = -1.5, 1.0 / 12.0
    mean = w * m1 + (1 - w) * m2
    second = w * (v1 + m1**2) + (1 - w) * (v2 + m2**2)
    return sd1, math.sqrt(second - mean**2)


def gen_covariates(rows: int, rng: np.random.Generator) -> np.ndarray:
    """rows x 2 covariates: U(-10,10) and a split-uniform column.

    The second column draws its first ceil(rows/2) entries from U(0,5) and
    the rest from U(-2,-1).  Samples are accepted only when each column's
    standard deviation reaches 25% of its theoretical value and the two
    columns are not nearly collinear (|corr| <= 0.9); rejected samples are
    redrawn (at most 1000 times).
    """
    half = math.ceil(rows / 2)
    sd_targets = _covariate_targets(rows)
    for _ in range(COVARIATE_MAX_TRIES):
        z1 = rng.uniform(-10.0, 10.0, size=rows)
        z2 = np.concatenate(
            [rng.uniform(0.0, 5.0, size=half), rng.uniform(-2.0, -1.0, size=rows - half)]
        )
        Z = np.column_stack([z1, z2])
        if rows < 3:
            return Z
        sds = Z.std(axis=0, ddof=1)
        if any(s < COVARIATE_MIN_SD_FRACTION * t for s, t in zip(sds, sd_targets)):
            continue
        if abs(np.corrcoef(z1, z2)[0, 1]) > COVARIATE_MAX_ABS_CORR:
            continue
        return Z
    raise SimulationError(
        f"covariate dispersion condition not met after {COVARIATE_MAX_TRIES} attempts"
    )


def gen_dataset(scenario: SimScenario, rng: np.random.Generator) -> Dataset:
    """Draw one dataset from the scenario's data-generation process."""
    _, roots = scenario_sigma(scenario.covariance, scenario.d, scenario.k)
    nu = default_nu(scenario.d)
    mu = scenario.group_means()
    sizes = scenario.sample_sizes
    Y_blocks = []
    Z_blocks = []
    for i, rows in enumerate(sizes):
        Z_i = gen_covariates(rows, rng)
        X_i = standardized_errors(scenario.distribution, rows, scenario.d, rng)
        eps = X_i @ roots[i]
        Y_blocks.append(mu[i][None, :] + Z_i @ nu + eps)
        Z_blocks.append(Z_i)
    return Dataset.from_group_blocks(
        groups=[f"G{i + 1}" for i in range(scenario.k)],
        Y_blocks=Y_blocks,
        Z_blocks=Z_blocks,
    )


def _global_rejections(scenario: SimScenario, run_indices, B: int, alpha: float,
                       seed: int, scenario_index: int) -> np.ndarray:
    """Global decisions (wild, parametric) for a block of simulation runs.

    An EstimationError in one run is re-raised, chained, as a SimulationError
    that names the scenario index, the run index and the dataset seed.
    """
    out = np.zeros((len(run_indices), 2), dtype=bool)
    H = build_family(scenario.contrast_family, scenario.k, scenario.d)
    for j, ri in enumerate(run_indices):
        data_seed = derive_seed(seed, scenario_index, ri, 0)
        try:
            ds = gen_dataset(scenario, substream(data_seed, 0))
            dm, fit, cov, A_n = _fit(ds, H)
            for col, kind in enumerate(("wild", "parametric")):
                cfg = BootstrapConfig(
                    kind=kind, B=B, seed=derive_seed(seed, scenario_index, ri, 1 + col)
                )
                *_, reject = _calibrate(cfg, dm, fit, cov, H, A_n, alpha)
                out[j, col] = bool(reject.any())
        except EstimationError as exc:
            raise SimulationError(
                f"scenario {scenario_index}, run {ri} (dataset seed {data_seed}) "
                f"failed: {exc}"
            ) from exc
    return out


def _binomial_ci(successes: int, trials: int, level: float = 0.95):
    # Clopper-Pearson exact interval
    a = 1.0 - level
    lo = 0.0 if successes == 0 else float(
        stats.beta.ppf(a / 2, successes, trials - successes + 1)
    )
    hi = 1.0 if successes == trials else float(
        stats.beta.ppf(1 - a / 2, successes + 1, trials - successes)
    )
    return lo, hi


def _block_flags(future, scenario_index: int, block) -> np.ndarray:
    """The pooled result of one block; a dead worker is named by the block."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        raise SimulationError(
            f"scenario {scenario_index}, runs {block[0]}-{block[-1]}: a worker "
            f"process died before this block finished ({exc})"
        ) from exc


def run_study(scenarios, runs: int, B: int, alpha: float, seed: int,
              workers: int = 1) -> list[StudyResult]:
    """Monte Carlo study over scenarios; returns one result per method.

    Each run draws a fresh dataset and applies both bootstrap schemes to it;
    the reported rate is the share of runs with a global rejection, in
    percent, with an exact 95% binomial confidence interval.  Deterministic
    in `seed` regardless of `workers`.  With `workers` > 1, one process
    pool runs the blocks of runs of every scenario; a failed run is raised
    as in the serial order, and the blocks not yet started are cancelled.
    A worker process that dies is raised as a SimulationError naming the
    first block, in that order, that did not finish.
    """
    if runs < 1:
        raise SimulationError("runs must be >= 1")
    scenarios = list(scenarios)
    if workers > 1:
        blocks = [blk.tolist() for blk in
                  np.array_split(np.arange(runs), min(workers * 4, runs))]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                [pool.submit(_global_rejections, scenario, blk, B, alpha, seed, si)
                 for blk in blocks]
                for si, scenario in enumerate(scenarios)
            ]
            try:
                cell_flags = [
                    np.vstack([_block_flags(f, si, blk) for f, blk in zip(row, blocks)])
                    for si, row in enumerate(futures)
                ]
            finally:
                pool.shutdown(cancel_futures=True)
    else:
        cell_flags = [
            _global_rejections(scenario, list(range(runs)), B, alpha, seed, si)
            for si, scenario in enumerate(scenarios)
        ]
    results: list[StudyResult] = []
    for scenario, flags in zip(scenarios, cell_flags):
        for col, method in enumerate(("wild", "parametric")):
            hits = int(flags[:, col].sum())
            lo, hi = _binomial_ci(hits, runs)
            results.append(
                StudyResult(
                    scenario=scenario,
                    method=method,
                    rate=100.0 * hits / runs,
                    ci_lower=100.0 * lo,
                    ci_upper=100.0 * hi,
                    runs=runs,
                    B=B,
                    seed=seed,
                )
            )
    return results


STUDY_CSV_COLUMNS = (
    "k", "d", "distribution", "covariance", "sample_pattern", "multiplier",
    "contrast_family", "alternative", "delta", "method", "rate_percent",
    "ci_lower_percent", "ci_upper_percent", "runs", "B", "seed",
)


def write_study_csv(results, path) -> None:
    """One CSV row per scenario x method, suitable for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_CSV_COLUMNS)
        for res in results:
            sc = res.scenario
            writer.writerow(
                [
                    sc.k, sc.d, sc.distribution, sc.covariance, sc.sample_pattern,
                    sc.multiplier, sc.contrast_family, sc.alternative, sc.delta,
                    res.method, repr(res.rate), repr(res.ci_lower),
                    repr(res.ci_upper), res.runs, res.B, res.seed,
                ]
            )
