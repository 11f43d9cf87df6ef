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
  including the order in which it sums;
- ``exact_statistics``: the observed statistics A_n of ``mctp._fit``, in
  40-digit decimal arithmetic, so that it checks the value of the statistic
  where float64 loses digits;
- ``centred_statistics``: the same A_n in float64 from within-group centred
  covariates and a plain-Python inverse of their c x c scatter, the fit
  that does not cancel when a covariate sits far from zero;
- ``exact_replicates``: rows of ``bootstrap.run_bootstrap``, drawn from the
  documented replicate stream and refit as ``exact_statistics`` fits.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

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


def _gauss_jordan_inverse(A):
    """Inverse of a square Decimal or float matrix (list of rows), partial
    pivoting, in plain Python."""
    m = len(A)
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(A)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda i: abs(aug[i][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for i in range(m):
            if i != col:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [row[m:] for row in aug]


def centred_statistics(n_i, Z: np.ndarray, Y: np.ndarray, H) -> np.ndarray:
    """A_n = sqrt(n) h'mu / sqrt(h'Dh) from within-group centred covariates.

    In float64: with the group means zbar_i and ybar_i and Zc = Z - zbar_g,
    W = Zc'Zc, nu = W^-1 Zc'(Y - ybar_g) and mu_i = ybar_i - zbar_i'nu.  The
    leverages are p_j = 1/n_i + zc_j'W^-1 zc_j and the adjusted-mean rows
    U1[j, a] = 1{j in group a}/n_a - zc_j'W^-1 zbar_a; the weights
    (1 - p) ** (-min(4, p / mean p)) and D = n sum_j w_j U1[j, a]^2 e[j, l]^2
    are the package's, with the residuals e = Y - ybar_g - Zc nu.  The c x c
    matrix W is inverted by Gauss-Jordan elimination in plain Python, so no
    raw Gram matrix and no LAPACK call enters.
    """
    n_i = np.asarray(n_i)
    k, n, c = len(n_i), Y.shape[0], Z.shape[1]
    g = np.repeat(np.arange(k), n_i)
    zbar = np.array([Z[g == i].mean(axis=0) for i in range(k)]).reshape(k, c)
    ybar = np.array([Y[g == i].mean(axis=0) for i in range(k)])
    Zc = Z - zbar[g]
    Winv = np.array(_gauss_jordan_inverse((Zc.T @ Zc).tolist()), dtype=float)
    Winv = Winv.reshape(c, c)
    nu = Winv @ (Zc.T @ (Y - ybar[g]))
    mu = ybar - zbar @ nu
    p = 1.0 / n_i[g] + np.einsum("ja,ab,jb->j", Zc, Winv, Zc)
    U1 = (g[:, None] == np.arange(k)) / n_i - Zc @ Winv @ zbar.T
    w = (1.0 - p) ** (-np.minimum(4.0, p / p.mean()))
    e = Y - ybar[g] - Zc @ nu
    D = n * np.einsum("ja,jl->al", w[:, None] * U1**2, e**2)
    H = np.asarray(H, dtype=float)
    return np.sqrt(n) * (H @ mu.reshape(-1)) / np.sqrt(H**2 @ D.reshape(-1))


def _exact_design(ds):
    """X = [group indicators | Z], XG = X G, the leverages p and the weights w.

    In Decimal, within the caller's context: G is the Gauss-Jordan inverse
    of the (k+c) Gram matrix, p = diag(X G X') and w = (1 - p) **
    (-min(4, p / mean p)) (Decimal takes non-integer powers).
    """
    group = [i for i, m in enumerate(ds.n_i) for _ in range(m)]
    X = [[Decimal(int(a == g)) for a in range(ds.k)] + [Decimal(z) for z in row]
         for g, row in zip(group, ds.Z.tolist())]
    P = len(X[0])
    gram = [[sum(x[a] * x[b] for x in X) for b in range(P)] for a in range(P)]
    G = _gauss_jordan_inverse(gram)
    XG = [[sum(x[b] * G[b][a] for b in range(P)) for a in range(P)] for x in X]
    p = [sum(xg[a] * x[a] for a in range(P)) for x, xg in zip(X, XG)]
    mean_p = sum(p) / len(X)
    w = [(1 - pj) ** (-min(Decimal(4), pj / mean_p)) for pj in p]
    return X, XG, p, w


def _exact_ols(X, XG, Y):
    """beta = G X'Y and the residuals Y - X beta of the Decimal response Y."""
    n, d, P = len(Y), len(Y[0]), len(X[0])
    beta = [[sum(XG[j][a] * Y[j][col] for j in range(n)) for col in range(d)]
            for a in range(P)]
    resid = [[Y[j][col] - sum(X[j][a] * beta[a][col] for a in range(P))
              for col in range(d)] for j in range(n)]
    return beta, resid


def _exact_refit(design, Y, k, H) -> np.ndarray:
    """sqrt(n) h'mu / sqrt(h'Dh) per row h of H for the Decimal response Y.

    mu are the first k rows of beta = G X'Y, and D = n sum_j w_j (XG)[j,
    a]^2 e[j, l]^2 with e the residuals.  Only the returned statistics are
    rounded to float64.
    """
    X, XG, _, w = design
    n, d = len(Y), len(Y[0])
    beta, resid = _exact_ols(X, XG, Y)
    mu = [beta[a][col] for a in range(k) for col in range(d)]
    D = [n * sum(w[j] * XG[j][a] ** 2 * resid[j][col] ** 2 for j in range(n))
         for a in range(k) for col in range(d)]
    root_n = Decimal(n).sqrt()
    out = []
    for h in np.asarray(H, dtype=float).tolist():
        h = [Decimal(v) for v in h]
        hmu = sum(hc * mc for hc, mc in zip(h, mu))
        hDh = sum(hc * hc * Dc for hc, Dc in zip(h, D))
        out.append(float(root_n * hmu / hDh.sqrt()))
    return np.array(out)


def exact_statistics(ds, H) -> np.ndarray:
    """A_n = sqrt(n) h'mu / sqrt(h'Dh) per row h of H, in 40-digit decimal.

    Every double of the data and of H converts to Decimal exactly.  The
    (k+c) Gram matrix of X = [group indicators | Z] is inverted by
    Gauss-Jordan elimination; then come the leverages p = diag(X G X'), the
    weights (1 - p) ** (-min(4, p / mean p)), the adjusted means G X'Y, the
    residuals, D = n sum_j w_j (XG)[j, a]^2 e[j, l]^2 and the square roots.
    Only the returned statistics are rounded to float64.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        Y = [[Decimal(y) for y in row] for row in ds.Y.tolist()]
        return _exact_refit(_exact_design(ds), Y, ds.k, H)


def exact_replicates(ds, H, kind, seed, rows, attempt=0) -> np.ndarray:
    """Rows `rows` of the bootstrap statistics, redraw `attempt`, in 40-digit
    decimal: a len(rows) x r matrix.

    The response of row b comes from the documented stream of replicate (b,
    attempt), a fresh ``Philox(key=[seed mod 2**64, attempt << 32 | b])``
    built here:

    - wild: ``integers(0, 2, size=n)`` gives subject j the sign 2u_j - 1,
      which multiplies the exact residuals of the observed fit, scaled by
      1/sqrt(1 - p_j) with the exact leverage p_j;
    - parametric: ``standard_normal((n, d))``, whose rows of group g are
      multiplied by the package's ``psd_sqrt(cov.group_sigmas[g])``.  That
      root is taken as float64 input, so this checks the refit and the
      studentizer, not the group covariances or their eigendecomposition.

    The response is refit as :func:`exact_statistics` fits the data.  The
    design, the residuals and the roots are computed once for all rows.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        design = _exact_design(ds)
        if kind == "wild":
            X, XG, p, _ = design
            _, resid = _exact_ols(X, XG, [[Decimal(y) for y in row]
                                          for row in ds.Y.tolist()])
            scaled = [[e / (1 - pj).sqrt() for e in row] for pj, row in zip(p, resid)]
        else:
            from bootmctp.covariance import psd_sqrt, sandwich
            from bootmctp.design import build_design, fit_ols

            dm = build_design(ds)
            roots = [[[Decimal(v) for v in row] for row in psd_sqrt(S).tolist()]
                     for S in sandwich(dm, fit_ols(dm, ds)).group_sigmas]
            group = [i for i, m in enumerate(ds.n_i) for _ in range(m)]
        out = []
        for b in rows:
            key = np.array([seed & ((1 << 64) - 1), attempt << 32 | b], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            if kind == "wild":
                signs = rng.integers(0, 2, size=ds.n).tolist()
                Y = [[(2 * u - 1) * v for v in row] for u, row in zip(signs, scaled)]
            else:
                normals = rng.standard_normal((ds.n, ds.d)).tolist()
                Y = [[sum(Decimal(u) * L[a][col] for a, u in enumerate(row))
                      for col in range(ds.d)]
                     for row, L in zip(normals, (roots[g] for g in group))]
            out.append(_exact_refit(design, Y, ds.k, H))
        return np.array(out)
