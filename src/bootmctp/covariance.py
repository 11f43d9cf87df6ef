"""Leverage-adjusted sandwich studentizer of the adjusted means.

The center of the sandwich is the block-diagonal matrix of squared residual
outer products, each reweighted by (1-p_ij)^(-delta_ij) where p_ij is the
subject's hat-matrix leverage and delta_ij = min(4, p_ij / mean leverage).
The test statistics need only the diagonal D of the upper-left (group-mean)
block of the sandwich, so only D is computed: one contraction of the
leverage-weighted squared adjusted-mean rows with the squared residuals.
Every bootstrap replicate refits the resampled response on the same design,
so it reuses those weighted rows, and :func:`studentize` turns adjusted
means and D into statistics for the observed data and every replicate alike.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .dataset import group_slices
from .design import DesignMatrices, FitResult
from .exceptions import EstimationError

LEVERAGE_CEILING = 1.0 - 1e-12
PSD_REL_TOL = 1e-10


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich studentizer for the adjusted means.

    ``D`` is the diagonal of the kd x kd upper-left sandwich block (stored
    as a group-major vector), ``wU1sq`` the n x k leverage-weighted squared
    adjusted-mean rows that D contracts with the squared residuals, and
    ``group_sigmas`` the parametric bootstrap's :func:`groupwise_cov` (None
    when some group is too small; the bootstrap then asks that function,
    which alone states the divisor rule and raises its error).
    """

    D: np.ndarray
    wU1sq: np.ndarray
    group_sigmas: tuple[np.ndarray, ...] | None

    def __post_init__(self):
        self.D.setflags(write=False)
        self.wU1sq.setflags(write=False)
        for s in self.group_sigmas or ():
            s.setflags(write=False)


def hc4_weights(leverages: np.ndarray) -> np.ndarray:
    """Per-subject weights (1-p)^(-delta), delta = min(4, p / mean leverage).

    Raises
    ------
    EstimationError
        If any leverage is at or numerically above one (infinite weight).
    """
    p = np.asarray(leverages, dtype=float)
    if np.any(p >= LEVERAGE_CEILING):
        worst = int(np.argmax(p))
        raise EstimationError(
            f"leverage at/above one for subject index {worst} (p={p[worst]:.6g}); "
            "the leverage-adjusted weights are undefined"
        )
    mean_lev = p.sum() / p.size
    delta = np.minimum(4.0, p / mean_lev)
    return (1.0 - p) ** (-delta)


def sandwich(dm: DesignMatrices, fit: FitResult) -> CovarianceEstimate:
    """Leverage-weighted sandwich studentizer of the adjusted means.

    D is the diagonal of the upper-left block of n (X'X)^-1 X' S X (X'X)^-1
    for the stacked design, S the block diagonal of weighted squared
    residuals.  By the Kronecker structure, entry (a, l) is
    n * sum_j w_j U1[j, a]^2 E[j, l]^2 with U1 = (X G)[:, :k], so only the
    n x (k+c) univariate design is touched.
    """
    weights = hc4_weights(dm.leverages)
    U1 = (dm.X @ dm.gram_inv)[:, : dm.k]
    wU1sq = weights[:, None] * U1**2
    with np.errstate(over="ignore"):  # an overflow reads inf, which a later check reports
        D = _sandwich_diagonal(wU1sq, fit.residuals**2)
        sigmas = None
        with contextlib.suppress(EstimationError):
            sigmas = groupwise_cov(fit, dm.n_i, dm.c)
    return CovarianceEstimate(D=D.reshape(-1), wU1sq=wU1sq, group_sigmas=sigmas)


def _sandwich_diagonal(wU1sq: np.ndarray, resid_sq: np.ndarray) -> np.ndarray:
    """D[a, q] = n * sum_j wU1sq[j, a] * resid_sq[j, q], summed in j order.

    `resid_sq` holds one squared residual column per outcome component of
    each response: (n, d) for the observed data, (n, m*d) for a chunk of m
    bootstrap replicates.
    """
    return wU1sq.shape[0] * np.einsum("na,nq->aq", wU1sq, resid_sq)


def studentize(mu: np.ndarray, D: np.ndarray, H: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """Statistics sqrt(n) h'mu / sqrt(h'Dh) for each row of mu and D.

    `mu` and `D` are (m, k*d) adjusted means and studentizer diagonals, one
    row per response; `H` is the r x kd contrast matrix.  Returns the
    (m, r) statistics and the (m, r) variances h'Dh, without a warning.  A
    statistic is finite only if its h'Dh is positive and finite.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hDh = np.einsum("mc,rc->mr", D, H**2)
        hmu = np.einsum("mc,rc->mr", mu, H)
        A = np.sqrt(n) * hmu / np.sqrt(hDh)
    A[hDh == np.inf] = np.nan  # h'mu / inf would read 0
    return A, hDh


def groupwise_cov(fit: FitResult, n_i, c: int) -> tuple[np.ndarray, ...]:
    """Group-wise residual covariances with divisor n_i - c - 1.

    Raises
    ------
    EstimationError
        If some group has n_i <= c + 1 (nonpositive divisor).  The package
        states this rule only here; ``dataset.validate`` merely warns of it.
    """
    out = []
    for i, (m, sl) in enumerate(zip(n_i, group_slices(n_i))):
        if m <= c + 1:
            raise EstimationError(f"parametric bootstrap divisor nonpositive in "
                                  f"group {i + 1}: n_i={m}, c={c}")
        E = fit.residuals[sl]
        S = (E.T @ E) / (m - c - 1)
        out.append((S + S.T) / 2.0)
    return tuple(out)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_REL_TOL * scale, 0) are clamped to zero; anything
    more negative raises, since the matrix is then not a covariance.
    """
    w, V = np.linalg.eigh(S)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -PSD_REL_TOL * scale:
        raise EstimationError(
            f"group covariance not PSD: eigenvalue {w[0]:.6g} below -tol*scale"
        )
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T
