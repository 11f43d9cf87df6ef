"""Design structures and the OLS fit for covariate-adjusted group means.

The model stacks d outcome components per subject; with subject-major
stacking the full design equals X kron I_d for the n x (k+c) univariate
design X = [group indicators | covariates].  All computations exploit this
and operate on the compact X, never materializing the Kronecker blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import Dataset, _group_indicators
from .exceptions import EstimationError


@dataclass(frozen=True)
class DesignMatrices:
    """Compact design for a dataset.

    ``X`` is the n x (k+c) univariate design; its first k columns are the
    group indicators, the rest the covariates.  ``gram_inv`` is (X'X)^-1;
    the stacked-model Gram inverse is ``gram_inv kron I_d``.
    """

    X: np.ndarray
    gram_inv: np.ndarray
    leverages: np.ndarray
    k: int
    c: int
    d: int
    n_i: tuple[int, ...]

    def __post_init__(self):
        for arr in (self.X, self.gram_inv, self.leverages):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class FitResult:
    """OLS estimates for the stacked model.

    ``mu_hat`` (k x d) holds the covariate-adjusted group means,
    ``nu_hat`` (c x d) the regression coefficients, ``residuals`` (n x d)
    the per-subject residual vectors.
    """

    mu_hat: np.ndarray
    nu_hat: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        for arr in (self.mu_hat, self.nu_hat, self.residuals):
            arr.setflags(write=False)

    @property
    def mu_vec(self) -> np.ndarray:
        """Adjusted means as one length-kd vector (group-major)."""
        return self.mu_hat.reshape(-1)


def build_design(ds: Dataset) -> DesignMatrices:
    """Build the compact design, Gram inverse and hat-matrix leverages.

    Raises
    ------
    EstimationError
        If the Gram matrix is numerically singular (normally pre-empted by
        :func:`bootmctp.dataset.validate`).
    """
    X = np.hstack([_group_indicators(ds), ds.Z])
    gram = X.T @ X
    try:
        cho = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError:
        raise EstimationError(
            "Gram matrix numerically singular; run validate() to locate the "
            "collinear columns"
        ) from None
    gram_inv = scipy.linalg.cho_solve(cho, np.eye(gram.shape[0]))
    gram_inv = (gram_inv + gram_inv.T) / 2.0
    leverages = np.einsum("ni,ij,nj->n", X, gram_inv, X)
    return DesignMatrices(
        X=X,
        gram_inv=gram_inv,
        leverages=leverages,
        k=ds.k,
        c=ds.c,
        d=ds.d,
        n_i=ds.n_i,
    )


def fit_ols(dm: DesignMatrices, ds: Dataset) -> FitResult:
    """Fit the stacked model by ordinary least squares.

    Returns adjusted means, regression coefficients and per-subject
    residuals Y_ij - mu_i - nu' z_ij.
    """
    beta = dm.gram_inv @ (dm.X.T @ ds.Y)  # (k+c) x d
    residuals = ds.Y - dm.X @ beta
    return FitResult(
        mu_hat=np.ascontiguousarray(beta[: dm.k]),
        nu_hat=np.ascontiguousarray(beta[dm.k :]),
        residuals=residuals,
    )
