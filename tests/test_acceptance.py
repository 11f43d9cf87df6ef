"""Acceptance suite: one test per release criterion, with a PASS line each.

Criteria 3, 4 and 8 run Monte Carlo studies and take a few minutes
combined; everything else is fast.  Tolerances are fixed here and must not
be loosened: a red criterion means the implementation (or its statistical
behavior) is wrong.
"""

import os
import time

import numpy as np
import pytest

from bootmctp import (
    BootstrapConfig,
    Dataset,
    SimScenario,
    load_csv,
    run_bootstrap,
    run_mctp,
    run_study,
    two_sample,
)
from bootmctp.covariance import hc4_weights, sandwich
from bootmctp.dataset import group_slices
from bootmctp.design import build_design, fit_ols
from bootmctp.mctp import adjust_level, contrast_quantiles, local_p_values

from conftest import HRV_OUTCOMES, random_dataset
from oracles import (
    adjusted_means_via_group_means,
    dense_ols,
    dense_sandwich_block,
    scan_adjust_level,
)

WORKERS = min(8, os.cpu_count() or 1)

HRV_ADJUSTED = np.array([17.03, 11.43, 167.89, 156.93, 103.14])
HRV_UNADJUSTED = np.array([12.95, 9.80, 157.23, 115.96, 100.38])


def report(name, detail):
    print(f"\n[{name}] PASS: {detail}")


@pytest.fixture(scope="module")
def hrv(hrv_path, hrv_schema):
    return load_csv(hrv_path, hrv_schema)


def test_criterion_1_hrv_mean_differences(hrv):
    """Adjusted and unadjusted absolute mean differences, +/-0.005, < 1 s."""
    start = time.perf_counter()
    dm = build_design(hrv)
    fit = fit_ols(dm, hrv)
    adjusted = np.abs(fit.mu_hat[0] - fit.mu_hat[1])
    sl = group_slices(hrv.n_i)
    unadjusted = np.abs(hrv.Y[sl[0]].mean(axis=0) - hrv.Y[sl[1]].mean(axis=0))
    elapsed = time.perf_counter() - start
    assert np.all(np.abs(adjusted - HRV_ADJUSTED) <= 0.005), adjusted
    assert np.all(np.abs(unadjusted - HRV_UNADJUSTED) <= 0.005), unadjusted
    # cross-check route: group means minus covariate correction
    eq1 = adjusted_means_via_group_means(hrv, fit)
    assert np.allclose(eq1, fit.mu_hat, rtol=1e-10, atol=1e-10)
    assert elapsed < 1.0
    report(
        "criterion 1",
        f"adjusted {np.round(adjusted, 4)}, unadjusted {np.round(unadjusted, 4)} "
        f"in {elapsed:.3f}s",
    )


def test_criterion_2_hrv_bootstrap_reproduction(hrv):
    """Wild bootstrap, B=2000: gamma/p bands and decisions over 10 seeds."""
    start = time.perf_counter()
    cm = two_sample(2, 5, group_names=hrv.groups, outcome_names=HRV_OUTCOMES)
    gammas, p_sdnn, p_vlf, both = [], [], [], 0
    for seed in range(1, 11):
        res = run_mctp(hrv, cm, BootstrapConfig("wild", 2000, seed), 0.05)
        gammas.append(res.gamma)
        p_sdnn.append(res.contrasts[0].p_value)
        p_vlf.append(res.contrasts[3].p_value)
        rejected = {o.label.split(", ")[1] for o in res.contrasts if o.reject}
        both += rejected == {"SDNN", "VLF"}
    elapsed = time.perf_counter() - start
    assert np.all(np.abs(np.array(gammas) - 0.0145) <= 0.004), gammas
    assert np.all(np.abs(np.array(p_sdnn) - 0.0050) <= 0.005), p_sdnn
    assert np.all(np.abs(np.array(p_vlf) - 0.0110) <= 0.008), p_vlf
    assert both >= 8, f"SDNN+VLF rejected in only {both}/10 seeds"
    assert elapsed < 30.0
    report(
        "criterion 2",
        f"gamma in [{min(gammas):.4f}, {max(gammas):.4f}], "
        f"p_SDNN in [{min(p_sdnn):.4f}, {max(p_sdnn):.4f}], "
        f"p_VLF in [{min(p_vlf):.4f}, {max(p_vlf):.4f}], "
        f"decisions {both}/10 in {elapsed:.1f}s",
    )


def test_criterion_3_fwer_desk_scale():
    """Null FWER of both bootstraps inside [3.6, 6.4]% (2000 runs, B=1000)."""
    start = time.perf_counter()
    scenario = SimScenario(k=3, d=2, distribution="normal", covariance=1,
                           contrast_family="dunnett")
    results = run_study([scenario], runs=2000, B=1000, alpha=0.05, seed=301,
                        workers=WORKERS)
    elapsed = time.perf_counter() - start
    rates = {res.method: res.rate for res in results}
    for method, rate in rates.items():
        assert 3.6 <= rate <= 6.4, f"{method} FWER {rate:.2f}% outside [3.6, 6.4]%"
    assert elapsed < 1800.0
    report(
        "criterion 3",
        f"FWER wild {rates['wild']:.2f}%, parametric {rates['parametric']:.2f}% "
        f"in {elapsed:.0f}s",
    )


def test_criterion_4_singular_robustness():
    """Singular covariance scenario: no crashes, finite D, FWER <= 8%."""
    start = time.perf_counter()
    scenario = SimScenario(k=3, d=3, distribution="normal", covariance=3,
                           contrast_family="dunnett")
    # spot-check finiteness of the studentizer on generated data
    from bootmctp._rng import substream
    from bootmctp.simgen import gen_dataset

    for i in range(20):
        ds = gen_dataset(scenario, substream(401, i))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        assert np.all(np.isfinite(cov.D)) and np.all(cov.D > 0)
    results = run_study([scenario], runs=500, B=1000, alpha=0.05, seed=402,
                        workers=WORKERS)
    elapsed = time.perf_counter() - start
    rates = {res.method: res.rate for res in results}
    for method, rate in rates.items():
        assert rate <= 8.0, f"{method} FWER {rate:.2f}% above 8%"
    assert elapsed < 600.0
    report(
        "criterion 4",
        f"FWER wild {rates['wild']:.2f}%, parametric {rates['parametric']:.2f}%, "
        f"all studentizers finite, in {elapsed:.0f}s",
    )


def test_criterion_5_oracle_equivalences():
    """Structured paths equal dense/definitional oracles at 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(500)

    for trial in range(50):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(0, 3))
        n_i = tuple(int(rng.integers(c + 3, 9)) for _ in range(k))
        ds = random_dataset(1000 + trial, k=k, d=d, c=c, n_i=n_i)
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        mu, nu, _ = dense_ols(ds.n_i, ds.Z, ds.Y)
        assert np.allclose(fit.mu_hat, mu, rtol=1e-10, atol=1e-11)
        assert np.allclose(fit.nu_hat, nu, rtol=1e-10, atol=1e-11)
        eq1 = adjusted_means_via_group_means(ds, fit)
        assert np.allclose(eq1, fit.mu_hat, rtol=1e-10, atol=1e-11)

    for trial in range(10):
        ds = random_dataset(2000 + trial, k=2, d=2, c=1, n_i=(8, 8))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        weights = hc4_weights(dm.leverages, dm.n)
        dense = dense_sandwich_block(ds.n_i, ds.Z, fit.residuals, weights)
        assert np.allclose(cov.D, np.diag(dense), rtol=1e-10, atol=1e-12)

    rng2 = np.random.default_rng(501)
    checked = 0
    for trial in range(200):
        B = int(rng2.integers(4, 60))
        r = int(rng2.integers(1, 6))
        A = rng2.integers(0, 7, size=(B, r)).astype(float) - 2.0  # many ties
        alpha = float(rng2.uniform(0.01, 0.4))
        assert adjust_level(A, alpha) == scan_adjust_level(A, alpha)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        "criterion 5",
        f"50 OLS + 10 sandwich dense oracles, {checked} adjusted-level scans "
        f"in {elapsed:.1f}s",
    )


def test_criterion_6_pvalue_duality_properties():
    """(p <= gamma) <=> rejection, locally and globally, on 500 tied draws."""
    rng = np.random.default_rng(600)
    violations = 0
    for trial in range(500):
        B = int(rng.integers(4, 80))
        r = int(rng.integers(1, 6))
        A_star = rng.integers(0, 8, size=(B, r)).astype(float) - 3.0
        A_n = rng.integers(0, 8, size=r).astype(float) - 3.0
        alpha = float(rng.uniform(0.02, 0.5))
        gamma = adjust_level(A_star, alpha)
        q = contrast_quantiles(A_star, gamma)
        p = local_p_values(A_star, A_n)
        reject = np.abs(A_n) > q
        if not np.array_equal(p <= gamma, reject):
            violations += 1
        if (p.min() <= gamma) != reject.any():
            violations += 1
    assert violations == 0
    report("criterion 6", "0 violations over 500 tied instances")


def test_criterion_7_bootstrap_distribution_sanity():
    """Both bootstrap laws match N(0, h'Lh/h'Dh) in mean and variance."""
    rng = np.random.default_rng(700)
    ds = Dataset.from_group_blocks(
        ["a", "b"], [rng.standard_normal((30, 1)), rng.standard_normal((30, 1))]
    )
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    cov = sandwich(dm, fit)
    cm = two_sample(2, 1)
    h = cm.H[0]
    lam = dense_sandwich_block(ds.n_i, ds.Z, fit.residuals,
                               hc4_weights(dm.leverages, dm.n))
    ratio = float((h @ lam @ h) / (cm.H[0] ** 2 @ cov.D))
    stats = {}
    for kind in ("wild", "parametric"):
        draws = run_bootstrap(BootstrapConfig(kind, 5000, 701), dm, fit, cov, cm)
        col = draws.A_star[:, 0]
        assert abs(col.mean()) <= 0.06, (kind, col.mean())
        assert abs(col.var() - ratio) <= 0.15 * ratio, (kind, col.var(), ratio)
        stats[kind] = (col.mean(), col.var())
    report(
        "criterion 7",
        f"target variance {ratio:.4f}; "
        + ", ".join(f"{k}: mean {m:.4f}, var {v:.4f}" for k, (m, v) in stats.items()),
    )


def test_criterion_8_power_ordering():
    """Shift alternative beats one-point at delta=2 by > 2 standard errors."""
    start = time.perf_counter()
    runs = 2000
    common = dict(k=3, d=3, distribution="normal", covariance=1,
                  contrast_family="dunnett", delta=2.0)
    scen = [SimScenario(alternative="shift", **common),
            SimScenario(alternative="one_point", **common)]
    results = run_study(scen, runs=runs, B=500, alpha=0.05, seed=801,
                        workers=WORKERS)
    elapsed = time.perf_counter() - start
    power = {
        (res.scenario.alternative, res.method): res.rate / 100.0 for res in results
    }
    for method in ("wild", "parametric"):
        p_shift = power[("shift", method)]
        p_point = power[("one_point", method)]
        se = np.sqrt(
            p_shift * (1 - p_shift) / runs + p_point * (1 - p_point) / runs
        )
        assert p_shift >= p_point + 2 * se, (method, p_shift, p_point, se)
    report(
        "criterion 8",
        f"power shift vs one-point: wild {100*power[('shift','wild')]:.1f}% vs "
        f"{100*power[('one_point','wild')]:.1f}%, parametric "
        f"{100*power[('shift','parametric')]:.1f}% vs "
        f"{100*power[('one_point','parametric')]:.1f}% in {elapsed:.0f}s",
    )
