"""Multiple contrast test procedure: statistics, level adjustment, decisions.

The local significance level gamma is tuned on the grid {0, 1/B, ...,
(B-1)/B} so that the bootstrap estimate of the family-wise error rate stays
at or below the global level alpha.  Quantiles follow the descending
order-statistic convention: the (1-gamma)-quantile of B absolute bootstrap
values is the (gamma*B + 1)-th largest.  With this convention the p-value /
critical-value duality holds exactly for finite B, ties included:
p_s <= gamma  iff  |A_n(h_s)| exceeds the contrast's quantile.

Gamma, the quantiles and the p-values all read one ranking of the draws:
|A_star| with each column sorted ascending, which :class:`BootstrapDraws`
makes once on construction (a raw B x r array passed in is sorted on the
spot).  Gamma comes from each replicate's tail counts, found by
``searchsorted`` in its column; the quantile at grid index g is row B-1-g;
a p-value is B minus the ``searchsorted`` position of |A_n(h_s)|, over B.
The counts are exact integers.

:func:`run_mctp` and each simulated run in ``simgen`` share one core:
:func:`_fit` (fit, sandwich studentizer, observed statistics) and
:func:`_calibrate` (bootstrap, gamma, quantiles, decisions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapDraws, run_bootstrap
from .contrasts import ContrastMatrix
from .covariance import CovarianceEstimate, sandwich, studentize
from .dataset import Dataset, validate
from .design import DesignMatrices, FitResult, build_design, fit_ols
from .exceptions import ConfigError, DataError, EstimationError

COARSE_GRID_B = 100


def test_statistics(fit: FitResult, cov: CovarianceEstimate,
                    contrasts: ContrastMatrix) -> np.ndarray:
    """Studentized contrast statistics sqrt(n) h'mu / sqrt(h'Dh).

    Raises
    ------
    EstimationError
        If some contrast's studentizer h'Dh is not positive (names the
        contrast label).
    """
    A, hDh = studentize(fit.mu_vec[None], cov.D[None], contrasts.H,
                        fit.residuals.shape[0])
    bad = np.nonzero(hDh[0] <= 0.0)[0]
    if bad.size:
        raise EstimationError(
            f"zero variance for contrast '{contrasts.labels[bad[0]]}': "
            "studentizer h'Dh is not positive"
        )
    return A[0]


def _ranked(draws) -> tuple[np.ndarray, np.ndarray]:
    """(A_star, |A_star| with each column sorted ascending) of the draws.

    A :class:`BootstrapDraws` carries the sorted copy from construction; a
    raw B x r array is sorted here.
    """
    if isinstance(draws, BootstrapDraws):
        return draws.A_star, draws.sorted_abs
    A = np.atleast_2d(np.asarray(draws, dtype=float))
    return A, np.sort(np.abs(A), axis=0)


def gamma_index(gamma: float, B: int) -> int:
    """Map a grid value gamma in {0, 1/B, ..., (B-1)/B} to its integer index."""
    g = int(round(gamma * B))
    if not 0 <= g < B or abs(g / B - gamma) > 1e-9:
        raise EstimationError(
            f"gamma={gamma} is not on the grid {{0, 1/B, ..., (B-1)/B}} for B={B}"
        )
    return g


def adjust_level(draws, alpha: float) -> float:
    """Largest grid gamma whose estimated family-wise error rate is <= alpha.

    Uses the rank shortcut: a replicate exceeds its column quantile at grid
    index g exactly when fewer than g+1 replicates are >= it in that column,
    so the error-rate curve is the cumulative distribution of the minimum
    per-column tail count.  This agrees with the definitional grid scan of
    the estimated error rate for every input, ties included.
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    A, S = _ranked(draws)
    B = S.shape[0]
    absA = np.abs(A)
    # Per replicate: min over contrasts of #{b': |A_b's| >= |A_bs|}, in 1..B.
    m = B - np.max([np.searchsorted(S[:, s], absA[:, s], side="left")
                    for s in range(S.shape[1])], axis=0)
    hist = np.bincount(m, minlength=B + 1)
    cum = np.cumsum(hist)  # cum[g] = #{b: m_b <= g}
    ok = cum[:B].astype(float) / B <= alpha  # prefix of the grid
    g_star = int(np.count_nonzero(ok)) - 1
    return g_star / B


def local_p_values(draws, A_n: np.ndarray) -> np.ndarray:
    """Share of replicates with |bootstrap statistic| >= |observed statistic|."""
    _, S = _ranked(draws)
    B = S.shape[0]
    absA_n = np.abs(np.asarray(A_n, dtype=float))
    below = [np.searchsorted(S[:, s], absA_n[s], side="left")
             for s in range(S.shape[1])]
    return (B - np.array(below)) / B


def contrast_quantiles(draws, gamma: float) -> np.ndarray:
    """Per-contrast (1-gamma)-quantiles of the absolute bootstrap statistics."""
    _, S = _ranked(draws)
    B = S.shape[0]
    return S[B - 1 - gamma_index(gamma, B)].copy()


def confidence_intervals(fit: FitResult, cov: CovarianceEstimate, draws,
                         gamma: float, contrasts: ContrastMatrix) -> np.ndarray:
    """Simultaneous intervals h'mu -/+ q * sqrt(h'Dh) / sqrt(n), shape (r, 2)."""
    n = fit.residuals.shape[0]
    est = contrasts.H @ fit.mu_vec
    _, hDh = studentize(fit.mu_vec[None], cov.D[None], contrasts.H, n)
    half = contrast_quantiles(draws, gamma) * np.sqrt(hDh[0] / n)
    return np.column_stack([est - half, est + half])


@dataclass(frozen=True)
class ContrastOutcome:
    """Everything reported for one contrast."""

    label: str
    estimate: float
    statistic: float
    quantile: float
    p_value: float
    ci_lower: float
    ci_upper: float
    reject: bool


@dataclass(frozen=True)
class MctpResult:
    """Result of one multiple contrast test run.

    ``gamma`` is the adjusted local level; the local decisions reject
    exactly when |statistic| strictly exceeds the contrast quantile, which
    coincides with p_value <= gamma.  The global decision is the union of
    the local ones and coincides with global_p <= gamma.
    """

    contrasts: tuple[ContrastOutcome, ...]
    gamma: float
    global_p: float
    global_reject: bool
    kind: str
    B: int
    seed: int
    alpha: float
    invalid_redraws: int
    warnings: tuple[str, ...]
    n: int
    k: int
    d: int
    c: int
    groups: tuple[str, ...]
    draws: BootstrapDraws | None = None

    def to_dict(self) -> dict:
        """Machine-readable report with full floating-point precision."""
        return {
            "meta": {
                "bootstrap": self.kind,
                "B": self.B,
                "seed": self.seed,
                "alpha": self.alpha,
                "gamma": self.gamma,
                "global_p": self.global_p,
                "global_reject": self.global_reject,
                "invalid_redraws": self.invalid_redraws,
                "warnings": list(self.warnings),
                "n": self.n,
                "k": self.k,
                "d": self.d,
                "c": self.c,
                "groups": list(self.groups),
            },
            "contrasts": [
                {
                    "label": o.label,
                    "estimate": o.estimate,
                    "statistic": o.statistic,
                    "quantile": o.quantile,
                    "p_value": o.p_value,
                    "ci_lower": o.ci_lower,
                    "ci_upper": o.ci_upper,
                    "reject": o.reject,
                }
                for o in self.contrasts
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def format_result_table(result: MctpResult) -> str:
    """Fixed-width summary table; p-values and gamma printed at 4 decimals."""
    width = max([len("contrast")] + [len(o.label) for o in result.contrasts])
    header = (
        f"{'contrast':<{width}}  {'estimate':>12}  {'statistic':>10}  "
        f"{'p':>8}  {'gamma':>8}  {'ci_lower':>12}  {'ci_upper':>12}  decision"
    )
    lines = [header, "-" * len(header)]
    for o in result.contrasts:
        decision = "reject" if o.reject else "retain"
        lines.append(
            f"{o.label:<{width}}  {o.estimate:>12.4f}  {o.statistic:>10.4f}  "
            f"{o.p_value:>8.4f}  {result.gamma:>8.4f}  {o.ci_lower:>12.4f}  "
            f"{o.ci_upper:>12.4f}  {decision}"
        )
    global_decision = "rejected" if result.global_reject else "retained"
    lines.append("")
    lines.append(
        f"global hypothesis {global_decision}: min p = {result.global_p:.4f}, "
        f"gamma = {result.gamma:.4f} (alpha = {result.alpha:g}, "
        f"{result.kind} bootstrap, B = {result.B}, seed = {result.seed})"
    )
    for w in result.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _fit(ds: Dataset, contrasts: ContrastMatrix):
    """Fit, sandwich studentizer and observed statistics: (dm, fit, cov, A_n)."""
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    cov = sandwich(dm, fit)
    return dm, fit, cov, test_statistics(fit, cov, contrasts)


def _calibrate(cfg: BootstrapConfig, dm: DesignMatrices, fit: FitResult,
               cov: CovarianceEstimate, contrasts: ContrastMatrix,
               A_n: np.ndarray, alpha: float):
    """Bootstrap, adjust gamma, decide: (draws, gamma, q, reject = |A_n| > q)."""
    draws = run_bootstrap(cfg, dm, fit, cov, contrasts)
    gamma = adjust_level(draws, alpha)
    q = contrast_quantiles(draws, gamma)
    return draws, gamma, q, np.abs(A_n) > q


def run_mctp(ds: Dataset, contrasts: ContrastMatrix, cfg: BootstrapConfig,
             alpha: float, keep_draws: bool = False) -> MctpResult:
    """Full procedure: fit, bootstrap, adjusted level, decisions, intervals.

    Parameters
    ----------
    ds : Dataset
        Validated input data (validation is re-run; errors raise DataError).
    contrasts : ContrastMatrix
        The r contrasts to test simultaneously.
    cfg : BootstrapConfig
        Bootstrap scheme, replicate count and seed.
    alpha : float
        Global significance level in (0, 1).
    keep_draws : bool
        Attach the replicate matrix to the result (for audit dumps).
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    report = validate(ds)
    if not report.ok:
        raise DataError("dataset not admissible: " + "; ".join(report.errors))
    if contrasts.H.shape[1] != ds.k * ds.d:
        raise EstimationError(
            f"contrast matrix has {contrasts.H.shape[1]} columns, "
            f"expected k*d = {ds.k * ds.d}"
        )

    dm, fit, cov, A_n = _fit(ds, contrasts)
    draws, gamma, q, reject = _calibrate(cfg, dm, fit, cov, contrasts, A_n, alpha)
    p = local_p_values(draws, A_n)
    ci = confidence_intervals(fit, cov, draws, gamma, contrasts)
    est = contrasts.H @ fit.mu_vec

    warnings = list(report.warnings) + list(draws.warnings)
    if cfg.B < COARSE_GRID_B:
        warnings.append(
            f"gamma-grid too coarse: B={cfg.B} < {COARSE_GRID_B}; the adjusted "
            "level can only take B distinct values"
        )
    if gamma == 0.0:
        warnings.append(
            f"no rejection possible: adjusted level gamma=0 at B={cfg.B}, "
            f"alpha={alpha:g}"
        )

    outcomes = tuple(
        ContrastOutcome(
            label=contrasts.labels[s],
            estimate=float(est[s]),
            statistic=float(A_n[s]),
            quantile=float(q[s]),
            p_value=float(p[s]),
            ci_lower=float(ci[s, 0]),
            ci_upper=float(ci[s, 1]),
            reject=bool(reject[s]),
        )
        for s in range(contrasts.r)
    )
    return MctpResult(
        contrasts=outcomes,
        gamma=gamma,
        global_p=float(p.min()),
        global_reject=bool(reject.any()),
        kind=cfg.kind,
        B=cfg.B,
        seed=cfg.seed,
        alpha=alpha,
        invalid_redraws=draws.invalid_redraws,
        warnings=tuple(warnings),
        n=ds.n,
        k=ds.k,
        d=ds.d,
        c=ds.c,
        groups=ds.groups,
        draws=draws if keep_draws else None,
    )
