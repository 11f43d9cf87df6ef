"""Multiple contrast test procedure: statistics, level adjustment, decisions.

The local significance level gamma is tuned on the grid {0, 1/B, ...,
(B-1)/B} so that the bootstrap estimate of the family-wise error rate stays
at or below the global level alpha.  Quantiles follow the descending
order-statistic convention: the (1-gamma)-quantile of B absolute bootstrap
values is the (gamma*B + 1)-th largest.  With this convention the p-value /
critical-value duality holds exactly for finite B, ties included:
p_s <= gamma  iff  |A_n(h_s)| exceeds the contrast's quantile.

Gamma, the quantiles and the p-values take a :class:`BootstrapDraws` and
read the one ranking of the draws that it makes on construction.  Gamma
comes from each replicate's tail counts, B minus its left ranks; the
quantile at grid index g is row B-1-g of the sorted |A_star|; a p-value is
the count of |A_star| at or above |A_n(h_s)| in its column, over B.  The
counts are exact integers.

:func:`run_mctp` and each simulated run in ``simgen`` share one core:
:func:`_fit` (fit, sandwich studentizer, observed statistics) and
:func:`_decide` (bootstrap, gamma, decisions, intervals: the :class:`MctpResult`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapDraws, _check_width, run_bootstrap
from .contrasts import ContrastMatrix
from .covariance import CovarianceEstimate, sandwich, studentize
from .dataset import Dataset, _real, validate
from .design import FitResult, build_design, fit_ols
from .exceptions import ConfigError, DataError, EstimationError

COARSE_GRID_B = 100


def test_statistics(fit: FitResult, cov: CovarianceEstimate,
                    contrasts: ContrastMatrix) -> np.ndarray:
    """Studentized contrast statistics sqrt(n) h'mu / sqrt(h'Dh).

    Raises
    ------
    EstimationError
        If some contrast's studentizer h'Dh is not positive and finite, or
        its statistic is not finite (names the contrast label).
    """
    A, hDh = studentize(fit.mu_vec[None], cov.D[None], contrasts.H,
                        fit.residuals.shape[0])
    bad = np.nonzero(~np.isfinite(A[0]))[0]
    if bad.size:
        label = contrasts.labels[bad[0]]
        if hDh[0, bad[0]] <= 0.0:
            raise EstimationError(f"zero variance for contrast '{label}': "
                                  "studentizer h'Dh is not positive")
        raise EstimationError(f"contrast '{label}' overflows: its studentizer "
                              "h'Dh or its statistic is not finite")
    return A[0]


def gamma_index(gamma: float, B: int) -> int:
    """Map a grid value gamma in {0, 1/B, ..., (B-1)/B} to its integer index."""
    g = int(round(gamma * B))
    if not 0 <= g < B or abs(g / B - gamma) > 1e-9:
        raise EstimationError(
            f"gamma={gamma} is not on the grid {{0, 1/B, ..., (B-1)/B}} for B={B}"
        )
    return g


def _check_alpha(alpha: float) -> None:
    _real(alpha, "alpha", ConfigError)
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def adjust_level(draws: BootstrapDraws, alpha: float) -> float:
    """Largest grid gamma whose estimated family-wise error rate is <= alpha.

    Uses the rank shortcut on the ``ranks`` of the :class:`BootstrapDraws`:
    a replicate exceeds its column quantile at grid index g exactly when
    fewer than g+1 replicates are >= it in that column, so the error-rate
    curve is the cumulative distribution of the minimum per-column tail
    count.  This agrees with the definitional grid scan of the estimated
    error rate for every input, ties included.
    """
    _check_alpha(alpha)
    B = draws.B
    # Per replicate: min over contrasts of #{b': |A_b's| >= |A_bs|}, in 1..B.
    m = B - draws.ranks.max(axis=1)
    hist = np.bincount(m, minlength=B + 1)
    cum = np.cumsum(hist)  # cum[g] = #{b: m_b <= g}
    ok = cum[:B].astype(float) / B <= alpha  # prefix of the grid
    g_star = int(np.count_nonzero(ok)) - 1
    return g_star / B


def local_p_values(draws: BootstrapDraws, A_n: np.ndarray) -> np.ndarray:
    """Share of replicates with |bootstrap statistic| >= |observed statistic|:
    a count per column of the :class:`BootstrapDraws`' ``sorted_abs``, over B."""
    absA_n = np.abs(np.asarray(A_n, dtype=float))
    return np.count_nonzero(draws.sorted_abs >= absA_n, axis=0) / draws.B


def contrast_quantiles(draws: BootstrapDraws, gamma: float) -> np.ndarray:
    """Per-contrast (1-gamma)-quantiles of the absolute bootstrap statistics:
    row B-1-g, g gamma's grid index, of the :class:`BootstrapDraws`' ``sorted_abs``."""
    B = draws.B
    return draws.sorted_abs[B - 1 - gamma_index(gamma, B)].copy()


def confidence_intervals(est: np.ndarray, q: np.ndarray, fit: FitResult,
                         cov: CovarianceEstimate, contrasts: ContrastMatrix):
    """Simultaneous intervals est -/+ q * sqrt(h'Dh) / sqrt(n), shape (r, 2),
    from the estimates est = h'mu and the quantiles q at the adjusted level."""
    n = fit.residuals.shape[0]
    _, hDh = studentize(fit.mu_vec[None], cov.D[None], contrasts.H, n)
    half = q * np.sqrt(hDh[0] / n)
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
            "contrasts": [asdict(o) for o in self.contrasts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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


def _decide(ds: Dataset, contrasts: ContrastMatrix, cfg: BootstrapConfig,
            alpha: float, fitted, warnings=(), keep_draws: bool = False) -> MctpResult:
    """Bootstrap, adjusted level, decisions, p-values and intervals from
    :func:`_fit`'s (dm, fit, cov, A_n); `warnings` lead the result's own."""
    dm, fit, cov, A_n = fitted
    draws = run_bootstrap(cfg, dm, fit, cov, contrasts)
    gamma = adjust_level(draws, alpha)
    q = contrast_quantiles(draws, gamma)
    reject = np.abs(A_n) > q
    p = local_p_values(draws, A_n)
    est = contrasts.H @ fit.mu_vec
    ci = confidence_intervals(est, q, fit, cov, contrasts)

    warnings = list(warnings) + list(draws.warnings)
    if cfg.B < COARSE_GRID_B:
        warnings.append(
            f"gamma-grid too coarse: B={cfg.B} < {COARSE_GRID_B}; the adjusted "
            "level can only take B distinct values"
        )
    if gamma == 0.0:
        warnings.append(
            f"adjusted level gamma=0 at B={cfg.B}, alpha={alpha:g}: only a "
            "statistic above every bootstrap value is rejected"
        )

    # One ContrastOutcome per row: its fields in order, as Python floats and bools.
    return MctpResult(
        contrasts=tuple(map(ContrastOutcome, contrasts.labels, *(
            c.tolist() for c in (est, A_n, q, p, ci[:, 0], ci[:, 1], reject)))),
        gamma=gamma,
        global_p=float(p.min()),
        global_reject=bool(reject.any()),
        kind=cfg.kind,
        B=cfg.B,
        seed=cfg.seed,
        alpha=alpha,
        invalid_redraws=draws.invalid_redraws,
        warnings=tuple(warnings),
        n=ds.n, k=ds.k, d=ds.d, c=ds.c, groups=ds.groups,
        draws=draws if keep_draws else None,
    )


def run_mctp(ds: Dataset, contrasts: ContrastMatrix, cfg: BootstrapConfig,
             alpha: float, keep_draws: bool = False) -> MctpResult:
    """Full procedure: fit, bootstrap, adjusted level, decisions, intervals.

    Parameters
    ----------
    ds : Dataset
        Input data.  :func:`~bootmctp.dataset.validate` runs here, once: an
        error raises DataError and the warnings go into the result.
    contrasts : ContrastMatrix
        The r contrasts to test simultaneously.
    cfg : BootstrapConfig
        Bootstrap scheme, replicate count and seed.
    alpha : float
        Global significance level in (0, 1).
    keep_draws : bool
        Attach the replicate matrix to the result (for audit dumps).
    """
    _check_alpha(alpha)
    report = validate(ds)
    if not report.ok:
        raise DataError("dataset not admissible: " + "; ".join(report.errors))
    _check_width(contrasts, ds.k, ds.d)
    return _decide(ds, contrasts, cfg, alpha, _fit(ds, contrasts), report.warnings,
                   keep_draws)
