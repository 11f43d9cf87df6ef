"""Leverage-adjusted sandwich covariance of the adjusted means.

The center of the sandwich is the block-diagonal matrix of squared residual
outer products, each reweighted by (1-p_ij)^(-delta_ij) where p_ij is the
subject's hat-matrix leverage and delta_ij = min(4, p_ij / mean leverage).
Only the upper-left (group-mean) block of the sandwich is kept; its diagonal
is the singularity-robust studentizer used by all test statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _group_slices
from .design import DesignMatrices, FitResult
from .exceptions import EstimationError

LEVERAGE_CEILING = 1.0 - 1e-12
PSD_REL_TOL = 1e-10


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich block for the adjusted means.

    ``lambda11`` is the kd x kd upper-left sandwich block, ``D`` its diagonal
    (stored as a vector), and ``group_sigmas`` the group-wise residual
    covariances with divisor n_i - c - 1 (None when some group is too small
    to form them; they are only needed by the parametric bootstrap).
    """

    lambda11: np.ndarray
    D: np.ndarray
    group_sigmas: tuple[np.ndarray, ...] | None

    def __post_init__(self):
        self.lambda11.setflags(write=False)
        self.D.setflags(write=False)
        if self.group_sigmas is not None:
            for s in self.group_sigmas:
                s.setflags(write=False)


def hc4_weights(leverages: np.ndarray, n: int) -> np.ndarray:
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
    if np.any(p < 0):
        raise EstimationError("negative leverage encountered")
    mean_lev = p.sum() / n
    delta = np.minimum(4.0, p / mean_lev)
    return (1.0 - p) ** (-delta)


def sandwich(dm: DesignMatrices, fit: FitResult, weights: np.ndarray) -> CovarianceEstimate:
    """Weighted sandwich estimate of the adjusted-mean covariance block.

    Computes n * (X'X)^-1 X' S X (X'X)^-1 for the stacked design with
    S the block diagonal of weighted squared residuals, using the Kronecker
    structure: only the n x (k+c) univariate design is touched.
    """
    n, k, d = dm.n, dm.k, dm.d
    U1 = (dm.X @ dm.gram_inv)[:, :k]  # n x k
    E = fit.residuals
    V = np.einsum("na,nl->nal", U1, E).reshape(n, k * d)
    lam = n * ((weights[:, None] * V).T @ V)
    lam = (lam + lam.T) / 2.0
    D = lam.diagonal().copy()

    sigmas: tuple[np.ndarray, ...] | None
    if all(m > dm.c + 1 for m in dm.n_i):
        sigmas = groupwise_cov(fit, dm.n_i, dm.c)
    else:
        sigmas = None
    return CovarianceEstimate(lambda11=lam, D=D, group_sigmas=sigmas)


def groupwise_cov(fit: FitResult, n_i, c: int) -> tuple[np.ndarray, ...]:
    """Group-wise residual covariances with divisor n_i - c - 1.

    Raises
    ------
    EstimationError
        If some group has n_i <= c + 1 (nonpositive divisor).
    """
    n_i = tuple(int(m) for m in n_i)
    check_group_divisors(n_i, c)
    out = []
    for m, sl in zip(n_i, _group_slices(n_i)):
        E = fit.residuals[sl]
        S = (E.T @ E) / (m - c - 1)
        out.append((S + S.T) / 2.0)
    return tuple(out)


def check_group_divisors(n_i, c: int) -> None:
    """Raise EstimationError unless every group has n_i > c + 1.

    The group-wise covariances used by the parametric bootstrap divide by
    n_i - c - 1.
    """
    for i, m in enumerate(n_i):
        if m <= c + 1:
            raise EstimationError(
                f"parametric bootstrap divisor nonpositive in group {i + 1}: "
                f"n_i={m}, c={c}"
            )


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
