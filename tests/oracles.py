"""Independent brute-force reference implementations used by the tests.

Everything here works on the fully materialized stacked model (Kronecker
blocks expanded densely), on definitional grid scans or on plain group
means, deliberately avoiding the package's structured computation paths.

References and the package functions they check:

- ``dense_ols``, ``dense_hat_diagonal``: ``design.build_design`` and
  ``design.fit_ols``;
- ``dense_sandwich_block``: the full kd x kd sandwich block, whose
  diagonal is ``covariance.sandwich``'s studentizer D;
- ``adjusted_means_via_group_means``: the adjusted means of
  ``design.fit_ols``;
- ``descending_quantile``: ``mctp.contrast_quantiles``;
- ``scan_fwer`` and ``scan_adjust_level``: ``mctp.adjust_level``;
- ``scan_p_values``: ``mctp.local_p_values``, by direct count;
- ``welch_type_statistic``: ``mctp.test_statistics``;
- ``sequential_refit``: the refit in ``bootstrap._Engine.statistics``,
  including the order in which it sums.
"""

from __future__ import annotations

import numpy as np


def group_indicator_matrix(n_i) -> np.ndarray:
    n = int(np.sum(n_i))
    M = np.zeros((n, len(n_i)))
    row = 0
    for i, m in enumerate(n_i):
        M[row : row + m, i] = 1.0
        row += m
    return M


def dense_stacked_design(n_i, Z: np.ndarray, d: int) -> np.ndarray:
    """Materialize the nd x (k+c)d stacked design (subject-major rows)."""
    X = np.hstack([group_indicator_matrix(n_i), Z])
    return np.kron(X, np.eye(d))


def dense_ols(n_i, Z: np.ndarray, Y: np.ndarray):
    """Solve the stacked normal equations densely; return (mu, nu, resid)."""
    n, d = Y.shape
    k = len(n_i)
    c = Z.shape[1]
    Xt = dense_stacked_design(n_i, Z, d)
    y = Y.reshape(-1)  # subject-major stacking
    beta = np.linalg.solve(Xt.T @ Xt, Xt.T @ y)
    resid = (y - Xt @ beta).reshape(n, d)
    mu = beta[: k * d].reshape(k, d)
    nu = beta[k * d :].reshape(c, d)
    return mu, nu, resid


def dense_hat_diagonal(n_i, Z: np.ndarray) -> np.ndarray:
    """Leverages from the explicitly formed univariate hat matrix."""
    X = np.hstack([group_indicator_matrix(n_i), Z])
    H = X @ np.linalg.solve(X.T @ X, X.T)
    return np.diag(H).copy()


def dense_sandwich_block(n_i, Z: np.ndarray, resid: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    """Upper-left kd x kd block of n (X'X)^-1 X' S X (X'X)^-1, all dense."""
    n, d = resid.shape
    k = len(n_i)
    Xt = dense_stacked_design(n_i, Z, d)
    S = np.zeros((n * d, n * d))
    for j in range(n):
        S[j * d : (j + 1) * d, j * d : (j + 1) * d] = (
            weights[j] * np.outer(resid[j], resid[j])
        )
    G = np.linalg.inv(Xt.T @ Xt)
    lam = n * G @ Xt.T @ S @ Xt @ G
    return lam[: k * d, : k * d]


def adjusted_means_via_group_means(ds, fit) -> np.ndarray:
    """Adjusted means recomputed as group means minus the covariate correction.

    Group mean of Y minus (group mean of z applied to the regression
    coefficients) must reproduce ``fit.mu_hat``.
    """
    out = np.empty_like(fit.mu_hat)
    bounds = np.cumsum([0, *ds.n_i])
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        ybar = ds.Y[lo:hi].mean(axis=0)
        correction = fit.nu_hat.T @ ds.Z[lo:hi].mean(axis=0) if ds.c else 0.0
        out[i] = ybar - correction
    return out


def descending_quantile(values: np.ndarray, g: int) -> float:
    """(g+1)-th largest of the absolute values."""
    return float(np.sort(np.abs(values))[::-1][g])


def scan_fwer(A_star: np.ndarray, g: int) -> float:
    """Definitional error-rate estimate at grid index g (strict exceedance)."""
    absA = np.abs(A_star)
    B = absA.shape[0]
    q = np.array([descending_quantile(absA[:, s], g) for s in range(absA.shape[1])])
    return float(np.count_nonzero((absA > q[None, :]).any(axis=1)) / B)


def scan_adjust_level(A_star: np.ndarray, alpha: float) -> float:
    """Definitional grid scan for the adjusted level."""
    B = A_star.shape[0]
    best = 0
    for g in range(B):
        if scan_fwer(A_star, g) <= alpha:
            best = g
        else:
            break  # scan_fwer is nondecreasing in g
    return best / B


def scan_p_values(A_star: np.ndarray, A_n: np.ndarray) -> np.ndarray:
    """Definitional local p-values: the share of replicates with |A*| >= |A_n|."""
    return (np.abs(A_star) >= np.abs(A_n)[None, :]).mean(axis=0)


def welch_type_statistic(y1: np.ndarray, y2: np.ndarray) -> float:
    """Two-group d=1 c=0 studentized statistic built from first principles.

    Uses the leverage-weighted variance with delta = min(4, p/mean p),
    p = 1/n_i within each group.
    """
    n1, n2 = len(y1), len(y2)
    n = n1 + n2
    mean_lev = 2.0 / n
    out = []
    for y, m in ((y1, n1), (y2, n2)):
        p = 1.0 / m
        delta = min(4.0, p / mean_lev)
        w = (1.0 - p) ** (-delta)
        resid = y - y.mean()
        out.append(n * w * np.sum(resid**2) / m**2)
    v1, v2 = out
    return float(np.sqrt(n) * (y1.mean() - y2.mean()) / np.sqrt(v1 + v2))


def sequential_refit(XG, X, wU1sq, Y):
    """Bootstrap refit of m responses by plain loops: (mu, D), each (m, k*d).

    `Y` is (m, n, d); `XG` is (n, p) with ``XG[j, a] = (G X')[a, j]``, `X`
    is the (n, p) design and `wU1sq` the (n, k) leverage-weighted squared
    adjusted-mean rows.  Per replicate: beta = G X' y, the squared
    residuals (y - X beta)**2 and D = n * wU1sq' (y - X beta)**2; the first
    k rows of beta are the adjusted means.  Every sum is ``acc += a * b``
    in index order, so the result is the reference for the summation order
    of the package's refit, not only for its value.
    """
    m, n, d = Y.shape
    p, k = X.shape[1], wU1sq.shape[1]
    XG, X, W = XG.tolist(), X.tolist(), wU1sq.tolist()
    mu = np.empty((m, k * d))
    D = np.empty((m, k * d))
    for r, y in enumerate(Y.tolist()):
        beta = [[0.0] * d for _ in range(p)]
        for a in range(p):
            for col in range(d):
                acc = 0.0
                for j in range(n):
                    acc += XG[j][a] * y[j][col]
                beta[a][col] = acc
        resid_sq = [[0.0] * d for _ in range(n)]
        for j in range(n):
            for col in range(d):
                acc = 0.0
                for a in range(p):
                    acc += X[j][a] * beta[a][col]
                e = y[j][col] - acc
                resid_sq[j][col] = e * e
        for a in range(k):
            for col in range(d):
                acc = 0.0
                for j in range(n):
                    acc += W[j][a] * resid_sq[j][col]
                mu[r, a * d + col] = beta[a][col]
                D[r, a * d + col] = n * acc
    return mu, D
