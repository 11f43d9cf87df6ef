"""Generate the bundled synthetic HRV example dataset.

Builds a 45-subject two-group dataset (hypnosis intervention vs control)
with five change-from-baseline heart-rate-variability outcomes and two
baseline covariates (suggestibility score HGSHA, perceived-stress score
PSS).  The construction pins the dataset's covariate-adjusted and raw mean
differences to the documented reference values and calibrates the residual
scale per outcome so that the wild-bootstrap analysis reproduces the
reference local p-values and adjusted level.  Real effects are planted in
SDNN and VLF only; the other outcomes differ by amounts the test should
not flag.

Run from the repository root:  python scripts/make_hrv_dataset.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from bootmctp import (  # noqa: E402
    BootstrapConfig,
    CsvSchema,
    load_csv,
    run_bootstrap,
    two_sample,
    validate,
)
from bootmctp.mctp import _fit, adjust_level, local_p_values  # noqa: E402

SEED = 20250810
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data", "hrv_synthetic.csv")

OUTCOMES = ("SDNN", "RMSSD", "HF", "VLF", "LF")
N_HYP, N_CTL = 23, 22

# Reference targets: absolute mean differences (hypnosis - control),
# wild-bootstrap local p-values, and the adjusted level.
ADJ_DIFF = np.array([17.03, 11.43, 167.89, 156.93, 103.14])
RAW_DIFF = np.array([12.95, 9.80, 157.23, 115.96, 100.38])
P_TARGET = np.array([0.0050, 0.1270, 0.3475, 0.0095, 0.5905])
GAMMA_TARGET = 0.0145

MU_CONTROL = np.array([-2.0, -1.0, -20.0, -15.0, -10.0])

# Cross-outcome residual correlations (strongly dependent HRV measures).
CORR = np.array(
    [
        [1.00, 0.80, 0.76, 0.80, 0.87],
        [0.80, 1.00, 0.95, 0.60, 0.70],
        [0.76, 0.95, 1.00, 0.55, 0.65],
        [0.80, 0.60, 0.55, 1.00, 0.70],
        [0.87, 0.70, 0.65, 0.70, 1.00],
    ]
)
CORR_SHRINK = 0.85  # toward independence; tuned so gamma lands on target

CALIB_B = 120_000
CALIB_SEED = 1


def draw_covariates(rng):
    # baseline scores centered at the sample mean (integer offsets); keeping
    # the covariate means near zero keeps the group-mean estimators' noise
    # dominated by within-group variation rather than by the shared
    # regression-coefficient noise
    hgsha = np.empty(N_HYP + N_CTL)
    hgsha[:N_HYP] = np.clip(np.round(rng.normal(0.4, 2.2, N_HYP)), -6, 6)
    hgsha[N_HYP:] = np.clip(np.round(rng.normal(-0.3, 2.2, N_CTL)), -6, 6)
    pss = np.empty(N_HYP + N_CTL)
    pss[:N_HYP] = np.clip(np.round(rng.normal(0.0, 7.0, N_HYP)), -18, 18)
    pss[N_HYP:] = np.clip(np.round(rng.normal(0.0, 7.0, N_CTL)), -18, 18)
    Z = np.column_stack([hgsha, pss])
    # pin the between-group imbalance (integer shift of the hypnosis block)
    g = Z[:N_HYP].mean(axis=0) - Z[N_HYP:].mean(axis=0)
    Z[:N_HYP] += np.round(np.array([0.7, 2.5]) - g)
    return Z


def orthogonal_unit_noise(rng, X, corr):
    """Correlated noise projected orthogonal to the design, unit column sd."""
    n = X.shape[0]
    L = np.linalg.cholesky(corr)
    E = rng.standard_normal((n, len(corr))) @ L.T
    E -= X @ np.linalg.solve(X.T @ X, X.T @ E)
    return E / E.std(axis=0, ddof=1)


def assemble(Z, E_unit, scales, mu_hyp):
    n = Z.shape[0]
    g = Z[:N_HYP].mean(axis=0) - Z[N_HYP:].mean(axis=0)
    # regression coefficients placing the documented raw-vs-adjusted gap
    nu = np.outer(g, RAW_DIFF - ADJ_DIFF) / (g @ g)
    mu = np.vstack([mu_hyp, MU_CONTROL])
    group_of_row = np.repeat([0, 1], [N_HYP, N_CTL])
    return mu[group_of_row] + Z @ nu + E_unit * scales[None, :]


def write_csv(path, Y, Z):
    rows = ["subject,group,SDNN,RMSSD,HF,VLF,LF,HGSHA,PSS"]
    for j in range(Y.shape[0]):
        group = "hypnosis" if j < N_HYP else "control"
        vals = ",".join(f"{v:.2f}" for v in Y[j])
        rows.append(f"S{j + 1:02d},{group},{vals},{int(Z[j, 0])},{int(Z[j, 1])}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def analyze(path, B, seed):
    schema = CsvSchema(group="group", outcomes=OUTCOMES, covariates=("HGSHA", "PSS"))
    ds = load_csv(path, schema)
    assert validate(ds).ok
    cm = two_sample(2, 5, group_names=ds.groups, outcome_names=OUTCOMES)
    dm, fit, cov, A_n = _fit(ds, cm)
    draws = run_bootstrap(BootstrapConfig("wild", B, seed), dm, fit, cov, cm)
    return ds, fit, cov, cm, A_n, draws


def main():
    rng = np.random.default_rng(SEED)
    Z = draw_covariates(rng)
    X = np.column_stack(
        [np.repeat([1.0, 0.0], [N_HYP, N_CTL]), np.repeat([0.0, 1.0], [N_HYP, N_CTL]), Z]
    )
    corr = CORR_SHRINK * CORR + (1 - CORR_SHRINK) * np.eye(5)
    E_unit = orthogonal_unit_noise(rng, X, corr)

    # initial scales from the normal approximation of the target p-values
    from scipy.stats import norm

    A_target = norm.ppf(1.0 - P_TARGET / 2.0)
    n = N_HYP + N_CTL
    mu_hyp = MU_CONTROL + ADJ_DIFF

    scales = np.ones(5)
    for iteration in range(4):
        # per-column studentizer for unit-scale residuals
        probe = assemble(Z, E_unit, scales, mu_hyp)
        write_csv(OUT_PATH, probe, Z)
        ds, fit, cov, cm, A_n, draws = analyze(OUT_PATH, 4000, CALIB_SEED)
        v_unit = (cm.H**2 @ cov.D) / scales**2
        scales = np.sqrt(n) * ADJ_DIFF / (A_target * np.sqrt(v_unit))

        Y = assemble(Z, E_unit, scales, mu_hyp)
        write_csv(OUT_PATH, Y, Z)

        # nudge the hypnosis block so the rounded data hit the mean targets
        for _ in range(3):
            ds, fit, cov, cm, A_n, draws = analyze(OUT_PATH, 2000, CALIB_SEED)
            actual = fit.mu_hat[0] - fit.mu_hat[1]
            Y[:N_HYP] += (ADJ_DIFF - actual)[None, :]
            write_csv(OUT_PATH, Y, Z)

        # recalibrate the statistic targets on the big-B bootstrap law
        ds, fit, cov, cm, A_n, draws = analyze(OUT_PATH, CALIB_B, CALIB_SEED)
        p_now = local_p_values(draws, A_n)
        A_target = np.quantile(np.abs(draws.A_star), 1.0 - P_TARGET, axis=0).diagonal()
        print(f"iter {iteration}: p = {np.round(p_now, 4)}  A_n = {np.round(A_n, 3)}")
        if np.all(np.abs(p_now - P_TARGET) < np.array([0.0005, 0.004, 0.006, 0.0008, 0.008])):
            break

    # report calibration summary
    ds, fit, cov, cm, A_n, draws = analyze(OUT_PATH, CALIB_B, CALIB_SEED)
    print("adjusted diff:", np.round(fit.mu_hat[0] - fit.mu_hat[1], 4))
    raw = np.array([ds.Y[:N_HYP, j].mean() - ds.Y[N_HYP:, j].mean() for j in range(5)])
    print("raw diff     :", np.round(raw, 4))
    print("p (B=120k)   :", np.round(local_p_values(draws, A_n), 5))

    gammas, p_seed = [], []
    for seed in range(1, 31):
        _, _, _, _, A_s, dr = analyze(OUT_PATH, 2000, seed)
        gammas.append(adjust_level(dr, 0.05))
        p_seed.append(local_p_values(dr, A_s))
    gammas = np.array(gammas)
    p_seed = np.array(p_seed)
    print("gamma over 30 seeds: mean %.4f  min %.4f  max %.4f"
          % (gammas.mean(), gammas.min(), gammas.max()))
    print("p_SDNN range:", np.round([p_seed[:, 0].min(), p_seed[:, 0].max()], 4))
    print("p_VLF  range:", np.round([p_seed[:, 3].min(), p_seed[:, 3].max()], 4))
    reject_both = np.mean((p_seed[:, 0] <= gammas) & (p_seed[:, 3] <= gammas))
    others = p_seed[:, [1, 2, 4]] <= gammas[:, None]
    print("reject SDNN&VLF share: %.2f   spurious other rejections: %d"
          % (reject_both, int(others.sum())))


if __name__ == "__main__":
    main()
