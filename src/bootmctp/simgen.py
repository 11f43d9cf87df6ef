"""Synthetic-data generator and error-rate / power study harness.

Scenarios combine a standardized error distribution, a group covariance
pattern (shared, group-k inflated, or exactly singular), a sample-size
pattern with a multiplier, two uniform covariates with fixed regression
coefficients, and an optional mean alternative placed on the last group.
Studies run both bootstrap schemes on each simulated dataset and report
empirical global rejection rates with exact binomial confidence intervals.
Each run is decided by ``mctp._decide``, the step that ``run_mctp`` ends in.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, dataclass, fields, replace
from functools import cache, partial

import numpy as np

from .bootstrap import KINDS, BootstrapConfig, _usable_cpus
from .contrasts import build_family
from .covariance import psd_sqrt
from .dataset import Dataset, _integer, _real
from .design import _scipy_extension
from .exceptions import ContrastError, EstimationError, SimulationError
from .mctp import _check_alpha, _decide, _fit
from ._rng import derive_seed, substream

DISTRIBUTIONS = ("normal", "t3", "chi2_3", "lognormal", "dexp")
ALTERNATIVES = ("null", "shift", "one_point", "trend")
COVARIANCES = (1, 2, 3)
SAMPLE_PATTERNS = (1, 2, 3)

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
SINGULAR_DIMS = tuple(_SINGULAR_SIGMA)


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
    """One cell of the simulation grid; construction checks every scenario rule."""

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
        for name in ("k", "d", "covariance", "sample_pattern", "multiplier"):
            value = _integer(getattr(self, name), name, SimulationError)
            object.__setattr__(self, name, value)
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
        _real(self.delta, "delta", SimulationError)
        if not np.isfinite(self.delta):
            raise SimulationError("delta must be finite")
        if (self.delta == 0.0) != (self.alternative == "null") or self.delta < 0:
            raise SimulationError(
                "delta must be 0 exactly for the null alternative and positive "
                "otherwise"
            )
        try:
            build_family(self.contrast_family, self.k, self.d)
        except ContrastError as exc:
            raise SimulationError(
                f"contrast_family {self.contrast_family!r}: {exc}") from exc

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


def scenario_sigma(scenario: SimScenario):
    """Group covariances and their symmetric square roots for a valid scenario.

    1: all groups share unit variances with 0.5 cross-correlation;
    2: like 1 but the last group's variances are doubled;
    3: the fixed exactly-singular matrices (d in SINGULAR_DIMS), all groups.
    """
    k, d = scenario.k, scenario.d
    compound = np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))
    if scenario.covariance == 1:
        sigmas = [compound.copy() for _ in range(k)]
    elif scenario.covariance == 2:
        sigmas = [compound.copy() for _ in range(k - 1)]
        sigmas.append(2.0 * np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d)))
    else:
        sigmas = [_SINGULAR_SIGMA[d].copy() for _ in range(k)]
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
    _, roots = scenario_sigma(scenario)
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


def _global_rejections(scenario: SimScenario, scenario_index: int,
                       block: tuple[int, int], cfgs: tuple[BootstrapConfig, ...],
                       alpha: float) -> list[int]:
    """Global rejection counts, one per config of `cfgs`, over the runs of `block`.

    The configs carry the study seed: run ri draws its dataset under
    ``derive_seed(seed, scenario_index, ri, 0)``, fits it once, and counts
    the ``global_reject`` of ``mctp._decide``, the step of ``run_mctp``, for
    config col under the path ending ``1 + col``.  An EstimationError in one
    run is re-raised, chained, as a SimulationError that names the scenario
    index, the run index and the dataset seed; any other exception keeps its
    type and gets them as a note (Python >= 3.11).
    """
    seed = cfgs[0].seed
    hits = [0] * len(cfgs)
    H = build_family(scenario.contrast_family, scenario.k, scenario.d)
    for ri in range(*block):
        data_seed = derive_seed(seed, scenario_index, ri, 0)
        try:
            ds = gen_dataset(scenario, substream(data_seed, 0))
            fitted = _fit(ds, H)
            for col, cfg in enumerate(cfgs):
                run_seed = derive_seed(seed, scenario_index, ri, 1 + col)
                hits[col] += _decide(ds, H, replace(cfg, seed=run_seed), alpha,
                                     fitted).global_reject
        except Exception as exc:
            where = f"scenario {scenario_index}, run {ri} (dataset seed {data_seed})"
            if isinstance(exc, EstimationError):
                raise SimulationError(f"{where} failed: {exc}") from exc
            if hasattr(exc, "add_note"):
                exc.add_note(where)
            raise
    return hits


@cache
def _ibeta_inv():
    """Boost's ibeta_inv, betaincinv's float64 kernel, without the scipy.special package."""
    export = "_export_ibeta_inv_double"
    capsule = _scipy_extension("special._ufuncs_cxx").__pyx_capi__.get(export)
    if capsule is None:
        from scipy import __version__
        raise ImportError(f"scipy {__version__}'s special._ufuncs_cxx has no {export}")
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    # The capsule points at Cython's `void *` variable, which points at the kernel.
    kernel = ctypes.c_void_p.from_address(get_pointer(capsule, b"void *")).value
    return ctypes.CFUNCTYPE(ctypes.c_double, *[ctypes.c_double] * 3)(kernel)


def _binomial_ci(successes: int, trials: int, level: float = 0.95):
    # Clopper-Pearson, bit for bit beta.ppf; a bound at 0 or 1 would give the kernel
    # a zero shape parameter, so it is set, not computed
    a, ibeta_inv = 1.0 - level, _ibeta_inv()
    lo = ibeta_inv(successes, trials - successes + 1, a / 2) if successes > 0 else 0.0
    hi = ibeta_inv(successes + 1, trials - successes, 1 - a / 2) if successes < trials else 1.0
    return lo, hi


def _block_bounds(runs: int, count: int) -> list[tuple[int, int]]:
    """(start, stop) of `count` consecutive blocks of runs, sized as np.array_split."""
    size, extra = divmod(runs, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(starts[:-1], starts[1:]))


def run_study(scenarios, runs: int, B: int, alpha: float, seed: int,
              workers: int = 1) -> list[StudyResult]:
    """Monte Carlo study over scenarios; returns one result per method.

    Each run draws a fresh dataset and applies both bootstrap schemes to it;
    the reported rate is the share of runs with a global rejection, in
    percent, with an exact 95% binomial confidence interval.  Deterministic
    in `seed` regardless of `workers`.  The runs of each scenario are split
    into min(4 * workers, runs) blocks, and one list of (scenario, block)
    tasks is mapped in this process, or on a pool of min(`workers`, tasks,
    usable CPUs) processes when that is more than one.  Either way a failed run is
    raised as in the serial order, and on the pool the tasks not yet
    started are cancelled; a worker process that dies is raised as a
    SimulationError naming the first block, in that order, that did not
    finish.  Pool workers, as any process that multiprocessing started,
    run their bootstraps on one thread; see :mod:`bootmctp.bootstrap`.
    Memory does not grow with `runs`.  Every argument is checked before any
    dataset is drawn.
    """
    runs = _integer(runs, "runs", SimulationError)
    workers = _integer(workers, "workers", SimulationError)
    if runs < 1:
        raise SimulationError("runs must be >= 1")
    if runs > sys.maxsize:
        raise SimulationError(f"runs must be <= {sys.maxsize}")
    if workers < 1:
        raise SimulationError("workers must be >= 1")
    if not np.iterable(scenarios):
        raise SimulationError(f"scenarios must be an iterable of SimScenario, got {scenarios!r}")
    scenarios = list(scenarios)
    for i, scenario in enumerate(scenarios):
        if not isinstance(scenario, SimScenario):
            raise SimulationError(
                f"scenarios[{i}] must be a SimScenario, got {type(scenario).__name__}")
    _check_alpha(alpha)
    cfgs = tuple(BootstrapConfig(kind, B, seed) for kind in KINDS)
    blocks = _block_bounds(runs, min(workers * 4, runs))
    tasks = [(si, block) for si in range(len(scenarios)) for block in blocks]
    run_block = partial(_global_rejections, cfgs=cfgs, alpha=alpha)
    cell_hits = [[0] * len(cfgs) for _ in scenarios]
    procs = min(workers, len(tasks), _usable_cpus())
    with ProcessPoolExecutor(procs) if procs > 1 else contextlib.nullcontext() as pool:
        block_hits = (pool.map if pool else map)(
            run_block, [scenarios[si] for si, _ in tasks], *zip(*tasks))
        for si, block in tasks:
            try:
                for col, count in enumerate(next(block_hits)):
                    cell_hits[si][col] += count
            except BrokenProcessPool as exc:
                raise SimulationError(
                    f"scenario {si}, runs {block[0]}-{block[1] - 1}: a worker "
                    f"process died before this block finished ({exc})"
                ) from exc
    results: list[StudyResult] = []
    for scenario, cell in zip(scenarios, cell_hits):
        for cfg, hits in zip(cfgs, cell):
            lo, hi = _binomial_ci(hits, runs)
            results.append(
                StudyResult(
                    scenario=scenario,
                    method=cfg.kind,
                    rate=100.0 * hits / runs,
                    ci_lower=100.0 * lo,
                    ci_upper=100.0 * hi,
                    runs=runs,
                    B=cfg.B,
                    seed=cfg.seed,
                )
            )
    return results


STUDY_CSV_COLUMNS = tuple(f.name for f in fields(SimScenario)) + (
    "method", "rate_percent", "ci_lower_percent", "ci_upper_percent", "runs", "B",
    "seed",
)


def write_study_csv(results, path) -> None:
    """One CSV row per scenario x method, suitable for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_CSV_COLUMNS)
        for res in results:
            writer.writerow([*astuple(res.scenario), res.method,
                             repr(res.rate), repr(res.ci_lower), repr(res.ci_upper),
                             res.runs, res.B, res.seed])
