import numpy as np
import pytest

from bootmctp import Dataset, EstimationError
from bootmctp.covariance import groupwise_cov, hc4_weights, psd_sqrt, sandwich
from bootmctp.dataset import group_slices
from bootmctp.design import DesignMatrices, FitResult, build_design, fit_ols
from bootmctp.simgen import SimScenario, gen_dataset
from bootmctp._rng import substream

from conftest import random_dataset
from oracles import dense_hat_diagonal, dense_sandwich_block


def pipeline(ds):
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    return dm, fit, hc4_weights(dm.leverages, dm.n), sandwich(dm, fit)


class TestHc4Weights:
    def test_equal_leverages_give_simple_inverse(self):
        # balanced two groups, no covariates: every leverage equals the mean
        p = np.full(8, 0.25)
        w = hc4_weights(p, 8)
        assert np.allclose(w, 1.0 / (1.0 - 0.25), atol=1e-14)

    def test_zero_leverage_gives_unit_weight(self):
        w = hc4_weights(np.array([0.0, 0.5, 0.5]), 3)
        assert w[0] == 1.0

    def test_unbalanced_two_group_hand_values(self):
        # k=2, c=0, n=(4,12): leverages 1/4 and 1/12, mean 1/8
        rng = np.random.default_rng(0)
        ds = Dataset.from_group_blocks(
            ["a", "b"], [rng.standard_normal((4, 1)), rng.standard_normal((12, 1))]
        )
        dm = build_design(ds)
        brute = dense_hat_diagonal(ds.n_i, ds.Z)
        assert np.allclose(dm.leverages, brute, atol=1e-12)
        assert np.allclose(dm.leverages[:4], 0.25, atol=1e-12)
        assert np.allclose(dm.leverages[4:], 1.0 / 12.0, atol=1e-12)
        w = hc4_weights(dm.leverages, dm.n)
        # delta = min(4, 2) = 2 and min(4, 2/3) = 2/3
        assert np.allclose(w[:4], 0.75 ** (-2.0), rtol=1e-12)
        assert np.allclose(w[4:], (11.0 / 12.0) ** (-2.0 / 3.0), rtol=1e-12)

    def test_leverage_at_one_rejected(self):
        # a singleton group with no covariates has leverage exactly one
        rng = np.random.default_rng(1)
        ds = Dataset.from_group_blocks(
            ["a", "b"], [rng.standard_normal((1, 1)), rng.standard_normal((5, 1))]
        )
        dm = build_design(ds)
        with pytest.raises(EstimationError, match="leverage at/above one"):
            hc4_weights(dm.leverages, dm.n)


class TestSandwich:
    def test_single_group_is_weighted_moment_estimator(self):
        # bypass Dataset (k >= 2 there); one group, intercept-only design:
        # every leverage is the mean 1/n, so every weight is n / (n - 1)
        rng = np.random.default_rng(2)
        n, d = 10, 3
        E = rng.standard_normal((n, d))
        E -= E.mean(axis=0)
        dm = DesignMatrices(
            X=np.ones((n, 1)),
            gram_inv=np.array([[1.0 / n]]),
            leverages=np.full(n, 1.0 / n),
            k=1,
            c=0,
            d=d,
            n_i=(n,),
        )
        fit = FitResult(
            mu_hat=np.zeros((1, d)),
            nu_hat=np.zeros((0, d)),
            residuals=E,
        )
        cov = sandwich(dm, fit)
        expected = np.sum(E**2, axis=0) / (n - 1)
        assert np.allclose(cov.D, expected, rtol=1e-12, atol=1e-14)

    def test_zero_residuals_give_zero(self):
        ds = random_dataset(3, k=2, d=2, c=1, n_i=(6, 6))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        zero_fit = FitResult(
            mu_hat=fit.mu_hat,
            nu_hat=fit.nu_hat,
            residuals=np.zeros_like(fit.residuals),
        )
        cov = sandwich(dm, zero_fit)
        assert np.all(cov.D == 0.0)

    def test_matches_dense_kronecker_oracle(self):
        ds = random_dataset(4, k=2, d=2, c=1, n_i=(8, 8))
        dm, fit, weights, cov = pipeline(ds)
        dense = dense_sandwich_block(ds.n_i, ds.Z, fit.residuals, weights)
        assert np.allclose(cov.D, np.diag(dense), rtol=1e-10, atol=1e-12)

    def test_scale_equivariance(self):
        ds = random_dataset(6, k=2, d=3, c=2, n_i=(9, 9))
        _, _, _, cov = pipeline(ds)
        lam = 3.0
        ds2 = Dataset(
            groups=ds.groups, n_i=ds.n_i, Y=lam * ds.Y, Z=ds.Z, row_group=ds.row_group
        )
        _, _, _, cov2 = pipeline(ds2)
        assert np.allclose(cov2.D, lam**2 * cov.D, rtol=1e-10)

    def test_singular_scenario_diagonal_finite(self):
        scenario = SimScenario(
            k=3, d=3, covariance=3, contrast_family="dunnett"
        )
        ds = gen_dataset(scenario, substream(99, 0))
        _, fit, weights, cov = pipeline(ds)
        assert np.all(np.isfinite(cov.D))
        assert np.all(cov.D > 0)
        # the full block is near-singular here; D never needs a decomposition
        lam = dense_sandwich_block(ds.n_i, ds.Z, fit.residuals, weights)
        assert np.linalg.matrix_rank(lam, tol=1e-8 * cov.D.max()) < lam.shape[0]


class TestGroupwiseCov:
    def test_alternating_unit_residuals(self):
        e1 = np.array([1.0, 0.0])
        resid = np.array([e1, -e1, e1, -e1])
        fit = FitResult(
            mu_hat=np.zeros((1, 2)),
            nu_hat=np.zeros((0, 2)),
            residuals=resid,
        )
        (sigma,) = groupwise_cov(fit, (4,), 0)
        assert np.allclose(sigma, (4.0 / 3.0) * np.outer(e1, e1), atol=1e-14)

    def test_zero_residuals(self):
        fit = FitResult(
            mu_hat=np.zeros((1, 2)),
            nu_hat=np.zeros((0, 2)),
            residuals=np.zeros((5, 2)),
        )
        (sigma,) = groupwise_cov(fit, (5,), 0)
        assert np.all(sigma == 0.0)

    def test_scalar_outcome_matches_variance(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(8, k=2, d=1, c=1, n_i=(9, 11))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        sigmas = groupwise_cov(fit, ds.n_i, ds.c)
        for sigma, sl, m in zip(sigmas, group_slices(ds.n_i), ds.n_i):
            expected = np.sum(fit.residuals[sl] ** 2) / (m - ds.c - 1)
            assert sigma[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_small_group_rejected(self):
        fit = FitResult(
            mu_hat=np.zeros((2, 1)),
            nu_hat=np.zeros((2, 1)),
            residuals=np.zeros((6, 1)),
        )
        with pytest.raises(EstimationError, match="divisor nonpositive"):
            groupwise_cov(fit, (3, 3), 2)

    def test_sandwich_skips_sigmas_for_small_groups(self):
        rng = np.random.default_rng(9)
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((3, 1)), rng.standard_normal((9, 1))],
            [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (9, 2))],
        )
        _, _, _, cov = pipeline(ds)
        assert cov.group_sigmas is None


class TestPsdSqrt:
    def test_reconstructs_psd_matrix(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((4, 4))
        S = A @ A.T
        L = psd_sqrt(S)
        assert np.allclose(L @ L.T, S, rtol=1e-10, atol=1e-12)
        assert np.allclose(L, L.T, atol=1e-12)

    def test_clamps_tiny_negative_eigenvalues(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        L = psd_sqrt(S)
        assert np.all(np.isfinite(L))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(EstimationError, match="not PSD"):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -0.5]]))
