import numpy as np
import pytest

from bootmctp import Dataset, load_csv
from bootmctp.dataset import group_slices
from bootmctp.design import build_design, fit_ols

from conftest import random_dataset
from oracles import (
    adjusted_means_via_group_means,
    dense_hat_diagonal,
    dense_ols,
    dense_stacked_design,
)


def fitted(ds):
    dm = build_design(ds)
    return dm, fit_ols(dm, ds)


class TestBuildDesign:
    def test_balanced_no_covariates_leverages(self):
        ds = Dataset.from_group_blocks(
            ["a", "b"], [np.arange(6).reshape(3, 2), np.ones((3, 2))]
        )
        dm = build_design(ds)
        assert np.allclose(dm.leverages, 1.0 / 3.0, atol=1e-12)
        brute = dense_hat_diagonal(ds.n_i, ds.Z)
        assert np.allclose(dm.leverages, brute, atol=1e-12)

    def test_leverage_trace_is_projection_rank(self):
        for seed in range(5):
            ds = random_dataset(seed, k=3, d=2, c=2, n_i=(5, 7, 6))
            dm = build_design(ds)
            assert dm.leverages.sum() == pytest.approx(ds.k + ds.c, abs=1e-9)
            assert np.all(dm.leverages >= -1e-12)
            assert np.all(dm.leverages <= 1.0 + 1e-12)

    def test_hrv_leverages_sum_to_four(self, hrv_path, hrv_schema):
        ds = load_csv(hrv_path, hrv_schema)
        dm = build_design(ds)
        assert dm.leverages.sum() == pytest.approx(4.0, abs=1e-9)

    def test_gram_inverse_symmetric(self):
        dm = build_design(random_dataset(3))
        assert np.array_equal(dm.gram_inv, dm.gram_inv.T)

    def test_stacked_gram_inverse_matches_dense(self):
        ds = random_dataset(4, k=2, d=3, c=1, n_i=(6, 5))
        dm = build_design(ds)
        Xt = dense_stacked_design(ds.n_i, ds.Z, ds.d)
        dense = np.linalg.inv(Xt.T @ Xt)
        stacked = np.kron(dm.gram_inv, np.eye(ds.d))
        assert np.allclose(stacked, dense, rtol=1e-9, atol=1e-12)


class TestFitOls:
    def test_no_covariates_gives_group_means(self):
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((4, 3)), rng.standard_normal((6, 3))]
        ds = Dataset.from_group_blocks(["a", "b"], blocks)
        _, fit = fitted(ds)
        for i, block in enumerate(blocks):
            assert np.allclose(fit.mu_hat[i], block.mean(axis=0), atol=1e-12)

    def test_matches_dense_normal_equations(self):
        ds = random_dataset(10, k=3, d=2, c=2, n_i=(6, 6, 6))
        _, fit = fitted(ds)
        mu, nu, resid = dense_ols(ds.n_i, ds.Z, ds.Y)
        assert np.allclose(fit.mu_hat, mu, rtol=1e-10, atol=1e-12)
        assert np.allclose(fit.nu_hat, nu, rtol=1e-10, atol=1e-12)
        assert np.allclose(fit.residuals, resid, rtol=1e-9, atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        ds = random_dataset(12, k=2, d=4, c=3, n_i=(9, 11))
        dm, fit = fitted(ds)
        scale = np.abs(ds.Y).max()
        assert np.abs(dm.X.T @ fit.residuals).max() < 1e-8 * scale

    def test_shift_equivariance(self):
        ds = random_dataset(13, k=3, d=2, c=2, n_i=(5, 5, 5))
        dm, fit = fitted(ds)
        shift = np.array([2.5, -1.0])
        Y2 = ds.Y.copy()
        Y2[group_slices(ds.n_i)[1]] += shift
        ds2 = Dataset(
            groups=ds.groups, n_i=ds.n_i, Y=Y2, Z=ds.Z, row_group=ds.row_group
        )
        fit2 = fit_ols(build_design(ds2), ds2)
        assert np.allclose(fit2.mu_hat[1], fit.mu_hat[1] + shift, rtol=1e-10, atol=1e-10)
        assert np.allclose(fit2.mu_hat[0], fit.mu_hat[0], rtol=1e-10, atol=1e-10)
        assert np.allclose(fit2.nu_hat, fit.nu_hat, rtol=1e-10, atol=1e-10)
        assert np.allclose(fit2.residuals, fit.residuals, rtol=1e-9, atol=1e-10)

    def test_covariate_translation_invariance(self):
        ds = random_dataset(14, k=2, d=2, c=2, n_i=(7, 8))
        dm, fit = fitted(ds)
        Z2 = ds.Z.copy()
        Z2[:, 0] += 5.0
        ds2 = Dataset(
            groups=ds.groups, n_i=ds.n_i, Y=ds.Y, Z=Z2, row_group=ds.row_group
        )
        dm2 = build_design(ds2)
        fit2 = fit_ols(dm2, ds2)
        assert np.allclose(dm2.leverages, dm.leverages, rtol=1e-10, atol=1e-12)
        assert np.allclose(fit2.residuals, fit.residuals, rtol=1e-9, atol=1e-10)
        assert not np.allclose(fit2.mu_hat, fit.mu_hat)

    def test_stacked_leverages_replicate(self):
        ds = random_dataset(15, k=2, d=3, c=1, n_i=(5, 6))
        dm = build_design(ds)
        Xt = dense_stacked_design(ds.n_i, ds.Z, ds.d)
        stacked = np.diag(Xt @ np.linalg.solve(Xt.T @ Xt, Xt.T))
        assert np.allclose(stacked, np.repeat(dm.leverages, ds.d), atol=1e-10)


class TestAdjustedMeansCrossCheck:
    def test_equals_fit_on_random_data(self):
        for seed in range(5):
            ds = random_dataset(seed, k=2, d=3, c=2, n_i=(8, 9))
            _, fit = fitted(ds)
            eq1 = adjusted_means_via_group_means(ds, fit)
            assert np.allclose(eq1, fit.mu_hat, rtol=1e-10, atol=1e-12)

    def test_equals_fit_on_hrv(self, hrv_path, hrv_schema):
        ds = load_csv(hrv_path, hrv_schema)
        _, fit = fitted(ds)
        eq1 = adjusted_means_via_group_means(ds, fit)
        assert np.allclose(eq1, fit.mu_hat, rtol=1e-10, atol=1e-10)

    def test_centered_covariates_give_raw_means(self):
        rng = np.random.default_rng(20)
        Z_blocks = []
        for rows in (6, 6):
            z = rng.uniform(-1, 1, (rows, 2))
            Z_blocks.append(z - z.mean(axis=0))  # group means exactly zero
        Y_blocks = [rng.standard_normal((6, 2)) for _ in range(2)]
        ds = Dataset.from_group_blocks(["a", "b"], Y_blocks, Z_blocks)
        _, fit = fitted(ds)
        eq1 = adjusted_means_via_group_means(ds, fit)
        for i, block in enumerate(Y_blocks):
            assert np.allclose(eq1[i], block.mean(axis=0), atol=1e-10)

    def test_no_covariates_gives_raw_means(self):
        rng = np.random.default_rng(21)
        blocks = [rng.standard_normal((5, 2)), rng.standard_normal((7, 2))]
        ds = Dataset.from_group_blocks(["a", "b"], blocks)
        _, fit = fitted(ds)
        eq1 = adjusted_means_via_group_means(ds, fit)
        for i, block in enumerate(blocks):
            assert np.allclose(eq1[i], block.mean(axis=0), atol=1e-12)
