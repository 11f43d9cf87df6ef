import gc
import weakref

import numpy as np
import pytest

from bootmctp import (
    BootstrapConfig,
    Dataset,
    EstimationError,
    build_family,
    custom,
    run_bootstrap,
    two_sample,
)
from bootmctp import bootstrap
from bootmctp.bootstrap import _Engine, _Rekeyed, _wild_signs, save_draws_csv
from bootmctp.covariance import CovarianceEstimate, hc4_weights, sandwich, studentize
from bootmctp.mctp import test_statistics as observed_statistics
from bootmctp.design import DesignMatrices, FitResult, build_design, fit_ols
from bootmctp._rng import ReplicateStream, substream

from conftest import random_dataset
from oracles import dense_sandwich_block, sequential_refit


def fitted(ds):
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    cov = sandwich(dm, fit)
    return ds, dm, fit, cov


def replicate(kind, dm, fit, cov, H, rng):
    """One replicate from the stream `rng`: (statistics, validity)."""
    engine = _Engine(kind, dm, fit, cov, H)
    A, valid = engine.statistics(engine.draw([rng], np.empty((dm.n, 1, dm.d))))
    return A[0], bool(valid[0])


@pytest.fixture(scope="module")
def fitted_small():
    return fitted(random_dataset(100, k=2, d=2, c=1, n_i=(10, 12)))


@pytest.fixture(scope="module")
def fitted_shapes(fitted_small):
    """The d=2, c=1 fixture plus a scalar design and a wide one."""
    return {
        "d=2, c=1": fitted_small,
        "d=1, c=0": fitted(random_dataset(101, k=2, d=1, c=0, n_i=(9, 11))),
        "d=5, c=2": fitted(random_dataset(7, k=2, d=5, c=2, n_i=(12, 15))),
    }


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        cm = two_sample(2, 2)
        cfg = BootstrapConfig("wild", 200, 7)
        a = run_bootstrap(cfg, dm, fit, cov, cm)
        b = run_bootstrap(cfg, dm, fit, cov, cm)
        assert np.array_equal(a.A_star, b.A_star)

    def test_replicate_recomputable_in_isolation(self, fitted_shapes):
        for shape, (ds, dm, fit, cov) in fitted_shapes.items():
            cm = two_sample(2, dm.d)
            for kind in ("wild", "parametric"):
                cfg = BootstrapConfig(kind, 50, 11)
                draws = run_bootstrap(cfg, dm, fit, cov, cm)
                for b in (0, 17, 49):
                    rng = substream(cfg.seed, b, 0)
                    a, valid = replicate(kind, dm, fit, cov, cm.H, rng)
                    assert valid
                    assert np.array_equal(a, draws.A_star[b]), (shape, kind, b)

    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    def test_chunk_size_does_not_change_results(self, fitted_shapes, monkeypatch, kind):
        for shape, (ds, dm, fit, cov) in fitted_shapes.items():
            cm = two_sample(2, dm.d)
            cfg = BootstrapConfig(kind, 300, 19)
            results = []
            for chunk in (1, 7, 256):
                monkeypatch.setattr(bootstrap, "CHUNK", chunk)
                results.append(run_bootstrap(cfg, dm, fit, cov, cm).A_star)
            assert np.array_equal(results[0], results[1]), shape
            assert np.array_equal(results[0], results[2]), shape

    def test_draw_into_reused_buffer_equals_fresh_draw(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        H = two_sample(2, 2).H
        for kind in ("wild", "parametric"):
            engine = _Engine(kind, dm, fit, cov, H)
            buf = np.full((dm.n, 9, dm.d), np.nan)
            for lo in (0, 9):
                rngs = [substream(4, b, 0) for b in range(lo, lo + 9)]
                fresh = engine.draw(rngs, np.empty((dm.n, 9, dm.d)))
                rngs = [substream(4, b, 0) for b in range(lo, lo + 9)]
                assert engine.draw(rngs, buf) is buf
                assert np.array_equal(buf, fresh)

    def test_single_row_for_b_equals_one(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        draws = run_bootstrap(BootstrapConfig("wild", 1, 5), dm, fit, cov, two_sample(2, 2))
        assert draws.A_star.shape == (1, 2)


class TestEngineLifetime:
    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    def test_engine_freed_without_garbage_collector(self, fitted_small, kind):
        """An engine and its chunk buffers go as soon as the bootstrap ends."""
        ds, dm, fit, cov = fitted_small
        gc.disable()
        try:
            engine = _Engine(kind, dm, fit, cov, two_sample(2, 2).H)
            engine.draw([substream(1, 0, 0)], np.empty((dm.n, 1, dm.d)))
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestRefitOrder:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("c", [0, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_statistics_equal_sequential_refit(self, k, c, d):
        """The refit sums each contraction in index order, bit for bit.

        A numpy release that changes einsum's loop order for these shapes
        fails here instead of moving the benchmark digests.
        """
        ds, dm, fit, cov = fitted(random_dataset(10 * k + c + d, k=k, d=d, c=c,
                                                 n_i=(7, 9, 8)[:k]))
        H = build_family("tukey", k, d).H
        engine = _Engine("wild", dm, fit, cov, H)
        rng = np.random.default_rng(d)
        for m in (1, 7, 256):
            Y = rng.standard_normal((dm.n, m, d))
            mu, D = sequential_refit(engine.XG, dm.X, engine.wU1sq,
                                     Y.transpose(1, 0, 2))
            A, valid = engine.statistics(Y)
            A_ref, hDh = studentize(mu, D, H, dm.n)
            valid_ref = (hDh > 0.0).all(axis=1) & np.isfinite(A_ref).all(axis=1)
            assert np.array_equal(A, A_ref), m
            assert np.array_equal(valid, valid_ref), m


class TestObservedIsReplicate:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("c", [0, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_observed_response_as_replicate_gives_observed_statistics(self, k, c, d):
        """Refitting the observed response reproduces the observed statistics."""
        ds, dm, fit, cov = fitted(random_dataset(10 * k + c + d, k=k, d=d, c=c,
                                                 n_i=(7, 9, 8)[:k]))
        cm = build_family("tukey", k, d)
        engine = _Engine("wild", dm, fit, cov, cm.H)
        A, valid = engine.statistics(np.ascontiguousarray(ds.Y[:, None, :]))
        assert valid[0]
        assert np.allclose(A[0], observed_statistics(fit, cov, cm), rtol=1e-12, atol=0)


class TestRowCoupling:
    def test_duplicated_contrast_gives_identical_columns(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        H = two_sample(2, 2).H
        cm = custom(np.vstack([H, H[0]]), labels=["a", "b", "a2"])
        draws = run_bootstrap(BootstrapConfig("wild", 100, 13), dm, fit, cov, cm)
        assert np.array_equal(draws.A_star[:, 0], draws.A_star[:, 2])


class TestWild:
    def test_sign_flip_leaves_abs_invariant(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        cm = two_sample(2, 2)
        engine = _Engine("wild", dm, fit, cov, cm.H)
        rng = substream(21, 0, 0)
        t = rng.integers(0, 2, size=dm.n) * 2.0 - 1.0
        Y = (t * engine.wild_scale)[:, None] * fit.residuals
        A_plus, _ = engine.statistics(Y[:, None])
        A_minus, _ = engine.statistics(-Y[:, None])
        assert np.array_equal(np.abs(A_plus), np.abs(A_minus))

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_raw_bit_signs_equal_integers(self, seed):
        """The signs read from raw Philox words equal integers(0, 2).

        The wild bootstrap reads its signs from bits 31 and 63 of the raw
        64-bit words instead of calling ``integers(0, 2, size=n)``.  The
        two agree only because of how numpy's bounded-integer (Lemire)
        path maps 32-bit draws to {0, 1}; this test fails if a numpy
        release changes that path.
        """
        batch = [(0, 0), (1, 0), (2**32 - 1, 0), (3, 5)]
        stream = ReplicateStream(seed)
        for n in range(1, 71):
            t = _wild_signs(_Rekeyed(stream, batch), n)
            want = [substream(seed, b, a).integers(0, 2, size=n) * 2.0 - 1.0
                    for b, a in batch]
            assert np.array_equal(t, np.array(want)), n

    def test_zero_residuals_replicate_invalid(self):
        ds = random_dataset(30, k=2, d=1, c=0, n_i=(5, 5))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        zero_fit = FitResult(
            mu_hat=fit.mu_hat,
            nu_hat=fit.nu_hat,
            residuals=np.zeros_like(fit.residuals),
        )
        cov = sandwich(dm, zero_fit)
        a, valid = replicate("wild", dm, zero_fit, cov, two_sample(2, 1).H,
                             substream(1, 0, 0))
        assert not valid

    def test_zero_residuals_bootstrap_aborts(self):
        ds = random_dataset(31, k=2, d=1, c=0, n_i=(5, 5))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        zero_fit = FitResult(
            mu_hat=fit.mu_hat,
            nu_hat=fit.nu_hat,
            residuals=np.zeros_like(fit.residuals),
        )
        cov = sandwich(dm, zero_fit)
        with pytest.raises(EstimationError, match="degenerate bootstrap"):
            run_bootstrap(BootstrapConfig("wild", 200, 2), dm, zero_fit, cov, two_sample(2, 1))

    def test_bootstrap_mean_of_adjusted_means_near_zero(self, fitted_small):
        # mean over replicates of the refit adjusted means is O(1/sqrt(n B))
        ds, dm, fit, cov = fitted_small
        B = 10000
        rng = substream(77, 0, 0)
        T = rng.integers(0, 2, size=(B, dm.n)) * 2.0 - 1.0
        scale = 1.0 / np.sqrt(1.0 - dm.leverages)
        mean_signs = T.mean(axis=0)
        Ybar = (mean_signs * scale)[:, None] * fit.residuals
        mu_mean = (dm.gram_inv @ (dm.X.T @ Ybar))[: dm.k]
        bound = 4.0 * np.sqrt(cov.D.reshape(dm.k, dm.d) / (dm.n * B))
        assert np.all(np.abs(mu_mean) <= bound)

    def test_mean_and_variance_sanity_two_group_scalar(self):
        # fixed n=(30,30) scalar dataset: A* roughly N(0, h'Lh / h'Dh)
        rng = np.random.default_rng(42)
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
        ratio = (h @ lam @ h) / (cm.H[0] ** 2 @ cov.D)
        assert ratio == pytest.approx(1.0, abs=1e-10)
        draws = run_bootstrap(BootstrapConfig("wild", 5000, 9), dm, fit, cov, cm)
        col = draws.A_star[:, 0]
        assert abs(col.mean()) < 0.05
        assert abs(col.var() - ratio) < 0.15 * ratio


@pytest.fixture(scope="module")
def few_redraws():
    """Wild bootstrap in which about 2 in 1024 replicates are degenerate.

    Group 1's residuals alternate +-1 in component 1 and +-2 in component
    2, and the contrast compares the two components within group 1, so a
    replicate whose signs undo the alternation has a zero studentizer.
    Seed 1 redraws 2 of B=1000 replicates: a warning, not an abort.
    """
    col = np.tile([4.0, 2.0], 5)
    other = np.random.default_rng(40).standard_normal((10, 2))
    ds = Dataset.from_group_blocks(["a", "b"], [np.column_stack([col, 2 * col]), other])
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    cov = sandwich(dm, fit)
    return dm, fit, cov, custom([[1.0, -1.0, 0.0, 0.0]]), BootstrapConfig("wild", 1000, 1)


class TestRedraws:
    def test_redraws_warn_and_do_not_depend_on_chunk_size(self, few_redraws, monkeypatch):
        dm, fit, cov, cm, cfg = few_redraws
        runs = []
        for chunk in (1, 7, 256):
            monkeypatch.setattr(bootstrap, "CHUNK", chunk)
            runs.append(run_bootstrap(cfg, dm, fit, cov, cm))
        assert runs[0].invalid_redraws > 0
        assert len(runs[0].warnings) == 1
        assert "invalid bootstrap replicates redrawn" in runs[0].warnings[0]
        for draws in runs[1:]:
            assert draws.invalid_redraws == runs[0].invalid_redraws
            assert np.array_equal(draws.A_star, runs[0].A_star)

    def test_redrawn_rows_come_from_the_next_attempt(self, few_redraws):
        dm, fit, cov, cm, cfg = few_redraws
        draws = run_bootstrap(cfg, dm, fit, cov, cm)
        redrawn = [b for b in range(cfg.B)
                   if not replicate("wild", dm, fit, cov, cm.H,
                                    substream(cfg.seed, b, 0))[1]]
        assert len(redrawn) == draws.invalid_redraws > 0
        for b in redrawn:
            a, valid = replicate("wild", dm, fit, cov, cm.H, substream(cfg.seed, b, 1))
            assert valid
            assert np.array_equal(draws.A_star[b], a), b


class TestParametric:
    def test_identity_covariance_draws_standard_normal(self):
        n = (50, 50)
        dm = DesignMatrices(
            X=np.repeat(np.eye(2), n, axis=0),
            gram_inv=np.diag([1.0 / n[0], 1.0 / n[1]]),
            leverages=np.repeat([1.0 / n[0], 1.0 / n[1]], n),
            k=2,
            c=0,
            d=2,
            n_i=n,
        )
        cov = CovarianceEstimate(
            D=np.ones(4),
            wU1sq=np.ones((dm.n, 2)),
            group_sigmas=(np.eye(2), np.eye(2)),
        )
        engine = _Engine("parametric", dm, None, cov, two_sample(2, 2).H)
        rngs = [substream(3, b, 0) for b in range(1000)]
        Y = engine.draw(rngs, np.empty((dm.n, 1000, 2)))
        pooled = Y.reshape(-1, 2)
        assert np.abs(pooled.mean(axis=0)).max() < 0.02
        assert np.abs(np.cov(pooled.T) - np.eye(2)).max() < 0.02

    def test_moment_check_diag_covariance(self):
        n = (50, 50)
        dm = DesignMatrices(
            X=np.repeat(np.eye(2), n, axis=0),
            gram_inv=np.diag([1.0 / n[0], 1.0 / n[1]]),
            leverages=np.repeat([1.0 / n[0], 1.0 / n[1]], n),
            k=2,
            c=0,
            d=2,
            n_i=n,
        )
        sigma = np.diag([4.0, 1.0])
        cov = CovarianceEstimate(
            D=np.ones(4), wU1sq=np.ones((dm.n, 2)), group_sigmas=(sigma, sigma)
        )
        engine = _Engine("parametric", dm, None, cov, two_sample(2, 2).H)
        rngs = [substream(4, b, 0) for b in range(1000)]
        Y = engine.draw(rngs, np.empty((dm.n, 1000, 2))).reshape(-1, 2)  # 1e5 draws
        emp = np.cov(Y.T)
        assert np.abs(emp - sigma).max() < 0.1

    def test_singular_covariance_draws_stay_in_column_space(self):
        # outcomes exactly collinear -> singular group covariances
        rng = np.random.default_rng(50)
        y1 = rng.standard_normal((12, 1))
        y2 = rng.standard_normal((12, 1))
        ds = Dataset.from_group_blocks(
            ["a", "b"], [np.hstack([y1, 2 * y1]), np.hstack([y2, 2 * y2])]
        )
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        for sigma in cov.group_sigmas:
            assert np.linalg.matrix_rank(sigma, tol=1e-10) == 1
        engine = _Engine("parametric", dm, fit, cov, two_sample(2, 2).H)
        Y = engine.draw([substream(5, b, 0) for b in range(50)],
                        np.empty((dm.n, 50, 2)))
        null_dir = np.array([2.0, -1.0]) / np.sqrt(5.0)  # orthogonal to (1, 2)
        span = np.abs(Y.reshape(-1, 2)).max()
        assert np.abs(Y.reshape(-1, 2) @ null_dir).max() < 1e-8 * span

    def test_small_group_raises_divisor_error(self):
        rng = np.random.default_rng(51)
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((3, 1)), rng.standard_normal((9, 1))],
            [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (9, 2))],
        )
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        assert cov.group_sigmas is None
        with pytest.raises(EstimationError, match="divisor nonpositive"):
            run_bootstrap(BootstrapConfig("parametric", 10, 1), dm, fit, cov, two_sample(2, 1))

    def test_missing_group_covariances_raise(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        bare = CovarianceEstimate(D=cov.D, wU1sq=cov.wU1sq, group_sigmas=None)
        with pytest.raises(EstimationError, match="group covariances"):
            run_bootstrap(BootstrapConfig("parametric", 10, 1), dm, fit, bare, two_sample(2, 2))


class TestConfigAndDump:
    def test_invalid_kind(self):
        with pytest.raises(EstimationError, match="unknown bootstrap kind"):
            BootstrapConfig("jackknife", 10, 1)

    def test_invalid_b(self):
        with pytest.raises(EstimationError, match="B must be >= 1"):
            BootstrapConfig("wild", 0, 1)

    def test_draws_csv_roundtrip(self, fitted_small, tmp_path):
        ds, dm, fit, cov = fitted_small
        cm = two_sample(2, 2)
        draws = run_bootstrap(BootstrapConfig("wild", 20, 1), dm, fit, cov, cm)
        path = tmp_path / "draws.csv"
        save_draws_csv(draws, str(path), labels=cm.labels)
        loaded = np.loadtxt(str(path), delimiter=",", skiprows=1)
        assert np.allclose(loaded, draws.A_star, rtol=1e-15)
