import csv
import gc
import itertools
import multiprocessing
import os
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from bootmctp import (
    BootstrapConfig,
    BootstrapDraws,
    ConfigError,
    ContrastMatrix,
    Dataset,
    EstimationError,
    build_family,
)
from bootmctp import bootstrap
from bootmctp.bootstrap import _Engine, _wild_signs, run_bootstrap, save_draws_csv
from bootmctp.covariance import CovarianceEstimate, hc4_weights, sandwich, studentize
from bootmctp.mctp import test_statistics as observed_statistics
from bootmctp.design import DesignMatrices, FitResult, build_design, fit_ols
from bootmctp._rng import replicate_streams, substream

from conftest import random_dataset
from oracles import dense_sandwich_block, sequential_refit


def fitted(ds):
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    cov = sandwich(dm, fit)
    return ds, dm, fit, cov


def zero_residual_fit(seed):
    """A scalar two-group fit whose residuals are all zero: (dm, fit, cov)."""
    ds = random_dataset(seed, k=2, d=1, c=0, n_i=(5, 5))
    dm = build_design(ds)
    fit = fit_ols(dm, ds)
    zero_fit = FitResult(
        mu_hat=fit.mu_hat,
        nu_hat=fit.nu_hat,
        residuals=np.zeros_like(fit.residuals),
    )
    return dm, zero_fit, sandwich(dm, zero_fit)


def replicate(kind, dm, fit, cov, H, rng):
    """One replicate from the stream `rng`: (statistics, validity)."""
    engine = _Engine(kind, dm, fit, cov, H, 1)
    A, valid = engine.statistics(engine.draw([rng], np.empty((dm.n, 1, dm.d))))
    return A[0], bool(valid[0])


@pytest.fixture(scope="module")
def fitted_small():
    return fitted(random_dataset(100, k=2, d=2, c=1, n_i=(10, 12)))


@pytest.fixture(scope="module")
def fitted_large():
    """A design at the threading gate of both schemes: n*d = 1500."""
    return fitted(random_dataset(8, k=2, d=5, c=2, n_i=(140, 160)))


@pytest.fixture(scope="module")
def fitted_shapes(fitted_small, fitted_large):
    """The d=2, c=1 fixture, a scalar design, a wide one and a large one."""
    return {
        "d=2, c=1": fitted_small,
        "d=1, c=0": fitted(random_dataset(101, k=2, d=1, c=0, n_i=(9, 11))),
        "d=5, c=2": fitted(random_dataset(7, k=2, d=5, c=2, n_i=(12, 15))),
        "n=300, d=5": fitted_large,
    }


def force_threads(monkeypatch, T):
    """Make every later bootstrap run on T threads, whatever its size."""
    monkeypatch.setattr(bootstrap, "_thread_count", lambda kind, n, d: T)


# (CHUNK, CHUNK_CELLS) pairs: three chunk sizes at the default byte bound,
# and the two bounds at which fitted_large (n*d = 1500) gets 1 and 7
# replicates per chunk.  A smaller CHUNK would make the bound moot.
LAYOUTS = ((1, bootstrap.CHUNK_CELLS), (7, bootstrap.CHUNK_CELLS),
           (256, bootstrap.CHUNK_CELLS), (256, 1500), (256, 7 * 1500))


def each_layout(monkeypatch):
    """Set T in {1, 2} x LAYOUTS in turn; yield each (T, CHUNK, CHUNK_CELLS)."""
    for T in (1, 2):
        force_threads(monkeypatch, T)
        for chunk, cells in LAYOUTS:
            monkeypatch.setattr(bootstrap, "CHUNK", chunk)
            monkeypatch.setattr(bootstrap, "CHUNK_CELLS", cells)
            yield T, chunk, cells


def runs_by_layout(monkeypatch, cfg, dm, fit, cov, cm):
    """run_bootstrap at T in {1, 2} x LAYOUTS, keyed by (T, CHUNK, CHUNK_CELLS)."""
    return {layout: run_bootstrap(cfg, dm, fit, cov, cm)
            for layout in each_layout(monkeypatch)}


def assert_same_draws(runs, context):
    """Every run's A_star, redraw count and warnings equal the first run's."""
    (_, first), *rest = runs.items()
    for layout, draws in rest:
        assert np.array_equal(draws.A_star, first.A_star), (context, layout)
        assert draws.invalid_redraws == first.invalid_redraws, (context, layout)
        assert draws.warnings == first.warnings, (context, layout)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        cm = build_family("two_sample", 2, 2)
        cfg = BootstrapConfig("wild", 200, 7)
        a = run_bootstrap(cfg, dm, fit, cov, cm)
        b = run_bootstrap(cfg, dm, fit, cov, cm)
        assert np.array_equal(a.A_star, b.A_star)

    def test_replicate_recomputable_in_isolation(self, fitted_shapes):
        for shape, (ds, dm, fit, cov) in fitted_shapes.items():
            cm = build_family("two_sample", 2, dm.d)
            for kind in ("wild", "parametric"):
                cfg = BootstrapConfig(kind, 50, 11)
                draws = run_bootstrap(cfg, dm, fit, cov, cm)
                for b in (0, 17, 49):
                    rng = substream(cfg.seed, b, 0)
                    a, valid = replicate(kind, dm, fit, cov, cm.H, rng)
                    assert valid
                    assert np.array_equal(a, draws.A_star[b]), (shape, kind, b)

    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    def test_threads_and_chunk_size_do_not_change_results(self, fitted_shapes,
                                                          monkeypatch, kind):
        for shape, (ds, dm, fit, cov) in fitted_shapes.items():
            cm = build_family("two_sample", 2, dm.d)
            cfg = BootstrapConfig(kind, 300, 19)
            assert_same_draws(runs_by_layout(monkeypatch, cfg, dm, fit, cov, cm), shape)

    def test_draw_into_reused_buffer_equals_fresh_draw(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        H = build_family("two_sample", 2, 2).H
        for kind in ("wild", "parametric"):
            engine = _Engine(kind, dm, fit, cov, H, 9)
            buf = np.full((dm.n, 9, dm.d), np.nan)
            for lo in (0, 9):
                rngs = [substream(4, b, 0) for b in range(lo, lo + 9)]
                fresh = engine.draw(rngs, np.empty((dm.n, 9, dm.d)))
                rngs = [substream(4, b, 0) for b in range(lo, lo + 9)]
                assert engine.draw(rngs, buf) is buf
                assert np.array_equal(buf, fresh)

    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    @pytest.mark.parametrize("large", [False, True])
    def test_one_philox_per_thread(self, fitted_small, fitted_large, monkeypatch,
                                   kind, large):
        """One Philox on the serial path, T on the threaded one.

        T comes from this process's real CPU affinity: 1 on one CPU.
        """
        built = []

        class Philox(np.random.Philox):  # the state setter checks the name
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        ds, dm, fit, cov = fitted_large if large else fitted_small
        cm = build_family("two_sample", 2, dm.d)
        cfg = BootstrapConfig(kind, 3 * bootstrap.CHUNK, 8)
        want = run_bootstrap(cfg, dm, fit, cov, cm).A_star
        monkeypatch.setattr(np.random, "Philox", Philox)
        assert np.array_equal(run_bootstrap(cfg, dm, fit, cov, cm).A_star, want)
        assert len(built) == (min(2, len(os.sched_getaffinity(0))) if large else 1)

    def test_thread_count_gate(self, monkeypatch):
        T = min(2, len(os.sched_getaffinity(0)))
        for kind, cells in bootstrap.THREAD_MIN_CELLS.items():
            assert bootstrap._thread_count(kind, cells - 1, 1) == 1
            assert bootstrap._thread_count(kind, cells, 1) == T
            assert bootstrap._thread_count(kind, 1, cells) == T
        assert bootstrap._thread_count("wild", 45, 5) == 1  # the HRV data
        monkeypatch.setattr(bootstrap, "MAX_THREADS", 1)
        assert bootstrap._thread_count("parametric", 10**4, 5) == 1

    def test_thread_count_in_a_multiprocessing_child(self, monkeypatch):
        """A process that multiprocessing started shares the CPUs: one thread."""
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert bootstrap._thread_count("parametric", 10**4, 5) == 1
        assert bootstrap.MAX_THREADS == 2

    def test_thread_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bootstrap._thread_count("wild", 10**4, 5) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert bootstrap._thread_count("wild", 10**4, 5) == 2

    def test_more_threads_than_cpus_with_short_switch_interval(self, fitted_small,
                                                               monkeypatch):
        """Eight threads handing the GIL over every microsecond: same draws."""
        ds, dm, fit, cov = fitted_small
        cm = build_family("two_sample", 2, 2)
        for kind in ("wild", "parametric"):
            cfg = BootstrapConfig(kind, 2000, 23)
            force_threads(monkeypatch, 1)
            want = run_bootstrap(cfg, dm, fit, cov, cm).A_star
            force_threads(monkeypatch, 8)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = run_bootstrap(cfg, dm, fit, cov, cm).A_star
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(got, want), kind

    def test_failing_chunk_on_the_pool_thread_raises(self, fitted_large, monkeypatch):
        ds, dm, fit, cov = fitted_large
        real = _Engine.replicates
        calls = []

        def replicates(self, seed, index, attempt, A_star):
            calls.append(index[0])
            if index[0] == 500:  # the second part of pass 0, ceil(B / 2)
                raise MemoryError("pool thread")
            return real(self, seed, index, attempt, A_star)

        force_threads(monkeypatch, 2)
        monkeypatch.setattr(_Engine, "replicates", replicates)
        with pytest.raises(MemoryError, match="pool thread"):
            run_bootstrap(BootstrapConfig("wild", 1000, 3), dm, fit, cov,
                          build_family("two_sample", 2, 5))
        assert sorted(calls) == [0, 500]

    @pytest.mark.parametrize("T", [1, 2])
    def test_only_a_one_thread_bootstrap_runs_on_the_calling_thread(self, fitted_small,
                                                                    monkeypatch, T):
        """T = 1 starts no pool, so its engine runs where a caller's tracer sees it."""
        ds, dm, fit, cov = fitted_small
        real = _Engine.replicates
        threads = []

        def replicates(self, *args):
            threads.append(threading.current_thread())
            return real(self, *args)

        force_threads(monkeypatch, T)
        monkeypatch.setattr(_Engine, "replicates", replicates)
        run_bootstrap(BootstrapConfig("wild", 200, 3), dm, fit, cov,
                      build_family("two_sample", 2, 2))
        caller = threading.current_thread()
        assert len(threads) == T
        assert all((thread is caller) == (T == 1) for thread in threads)

    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    @pytest.mark.parametrize("cells", [1000, 7 * 1500, bootstrap.CHUNK_CELLS])
    def test_chunk_buffers_hold_at_most_chunk_cells(self, fitted_large, monkeypatch,
                                                    kind, cells):
        """Every engine buffer stays within CHUNK_CELLS doubles, or one replicate."""
        ds, dm, fit, cov = fitted_large
        engines = []

        class Engine(_Engine):
            def __init__(self, *args, **kwargs):
                engines.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bootstrap, "_Engine", Engine)
        monkeypatch.setattr(bootstrap, "CHUNK_CELLS", cells)
        for T in (1, 2):
            force_threads(monkeypatch, T)
            run_bootstrap(BootstrapConfig(kind, 600, 5), dm, fit, cov,
                          build_family("two_sample", 2, 5))
        assert len(engines) == 3
        bound = max(cells, dm.n * dm.d)  # 1000 is below one replicate's 1500
        for engine in engines:
            assert engine._Y.size <= bound and engine._work.size <= bound

    def test_single_row_for_b_equals_one(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        draws = run_bootstrap(BootstrapConfig("wild", 1, 5), dm, fit, cov,
                              build_family("two_sample", 2, 2))
        assert draws.A_star.shape == (1, 2)


class TestEngineLifetime:
    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    def test_engine_freed_without_garbage_collector(self, fitted_small, kind):
        """An engine and its chunk buffers go as soon as the bootstrap ends."""
        ds, dm, fit, cov = fitted_small
        gc.disable()
        try:
            engine = _Engine(kind, dm, fit, cov, build_family("two_sample", 2, 2).H, 1)
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
        engine = _Engine("wild", dm, fit, cov, H, 256)
        rng = np.random.default_rng(d)
        for m in (1, 7, 256):
            Y = rng.standard_normal((dm.n, m, d))
            mu, D = sequential_refit(engine.XG, dm.X, engine.wU1sq,
                                     Y.transpose(1, 0, 2))
            A, valid = engine.statistics(Y)
            A_ref, hDh = studentize(mu, D, H, dm.n)
            floor = np.finfo(float).eps * (H**2 @ cov.D)
            valid_ref = (hDh > floor).all(axis=1) & np.isfinite(A_ref).all(axis=1)
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
        engine = _Engine("wild", dm, fit, cov, cm.H, 1)
        A, valid = engine.statistics(np.ascontiguousarray(ds.Y[:, None, :]))
        assert valid[0]
        assert np.allclose(A[0], observed_statistics(fit, cov, cm), rtol=1e-12, atol=0)


class TestRowCoupling:
    def test_duplicated_contrast_gives_identical_columns(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        H = build_family("two_sample", 2, 2).H
        cm = ContrastMatrix(np.vstack([H, H[0]]), labels=["a", "b", "a2"])
        draws = run_bootstrap(BootstrapConfig("wild", 100, 13), dm, fit, cov, cm)
        assert np.array_equal(draws.A_star[:, 0], draws.A_star[:, 2])


class TestWild:
    def test_sign_flip_leaves_abs_invariant(self, fitted_small):
        ds, dm, fit, cov = fitted_small
        cm = build_family("two_sample", 2, 2)
        engine = _Engine("wild", dm, fit, cov, cm.H, 1)
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
        index, attempt = [0, 1, 2**32 - 1, 3], [0, 0, 0, 5]
        rng = np.random.Generator(np.random.Philox(0))
        for n in range(1, 71):
            rngs = itertools.chain(replicate_streams(rng, seed, index[:3], 0),
                                   replicate_streams(rng, seed, index[3:], 5))
            t = _wild_signs(rngs, np.empty((4, n)))
            want = [substream(seed, b, a).integers(0, 2, size=n) * 2.0 - 1.0
                    for b, a in zip(index, attempt)]
            assert np.array_equal(t, np.array(want)), n

    def test_zero_residuals_replicate_invalid(self):
        dm, zero_fit, cov = zero_residual_fit(30)
        a, valid = replicate("wild", dm, zero_fit, cov, build_family("two_sample", 2, 1).H,
                             substream(1, 0, 0))
        assert not valid

    def test_overflowing_contrast_replicate_invalid_without_warning(self, fitted_small):
        """h'Dh = inf makes a replicate invalid, as it fails the observed fit."""
        _, dm, fit, cov = fitted_small
        H = np.array([[1e308, 0.0, -1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, valid = replicate("wild", dm, fit, cov, H, substream(1, 0, 0))
        assert not valid

    def test_zero_residuals_bootstrap_aborts(self):
        dm, zero_fit, cov = zero_residual_fit(31)
        with pytest.raises(EstimationError, match="degenerate bootstrap"):
            run_bootstrap(BootstrapConfig("wild", 200, 2), dm, zero_fit, cov,
                          build_family("two_sample", 2, 1))

    def test_abort_message_does_not_depend_on_threads_or_chunk_size(self, monkeypatch):
        """Pass 0 finds all B replicates invalid at any T and chunk size."""
        dm, zero_fit, cov = zero_residual_fit(31)
        cfg, cm = BootstrapConfig("wild", 2000, 2), build_family("two_sample", 2, 1)
        messages = set()
        for _ in each_layout(monkeypatch):
            with pytest.raises(EstimationError) as raised:
                run_bootstrap(cfg, dm, zero_fit, cov, cm)
            messages.add(str(raised.value))
        assert messages == {"degenerate bootstrap distribution: more than 1% of "
                            "replicates invalid (2000 redraws for B=2000)"}

    def test_replicate_invalid_on_every_attempt_stops_on_the_one_percent_budget(
            self, monkeypatch, fitted_small):
        """Replicate 0 redrawn in every pass ends the run after floor(0.01 B) + 1 passes."""
        _, dm, fit, cov = fitted_small
        replicates, attempts = bootstrap._Engine.replicates, []

        def replicate_0_invalid(engine, seed, index, attempt, A_star):
            attempts.append(attempt)
            return replicates(engine, seed, index, attempt, A_star) & (index != 0)

        monkeypatch.setattr(bootstrap._Engine, "replicates", replicate_0_invalid)
        with pytest.raises(EstimationError) as raised:
            run_bootstrap(BootstrapConfig("wild", 10_000, 2), dm, fit, cov,
                          build_family("two_sample", 2, dm.d))
        assert str(raised.value) == ("degenerate bootstrap distribution: more than 1% of "
                                     "replicates invalid (101 redraws for B=10000)")
        assert attempts == list(range(101))

    def test_groups_of_two_without_covariates_are_degenerate(self):
        # Residuals e and -e: half of the sign draws zero a group's replicate
        # residuals, so more than 1% of the replicates are degenerate.
        ds = random_dataset(0, k=4, d=1, c=0, n_i=(2, 2, 2, 2))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cm = build_family("tukey", 4, 1)
        with pytest.raises(EstimationError, match="degenerate bootstrap distribution"):
            run_bootstrap(BootstrapConfig("wild", 2000, 1), dm, fit, sandwich(dm, fit), cm)

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
        cm = build_family("two_sample", 2, 1)
        h = cm.H[0]
        lam = dense_sandwich_block(ds.n_i, ds.Z, fit.residuals,
                                   hc4_weights(dm.leverages))
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
    return dm, fit, cov, ContrastMatrix([[1.0, -1.0, 0.0, 0.0]]), BootstrapConfig("wild", 1000, 1)


class TestRedraws:
    def test_redraws_warn_and_do_not_depend_on_threads_or_chunk_size(
            self, few_redraws, monkeypatch):
        dm, fit, cov, cm, cfg = few_redraws
        runs = runs_by_layout(monkeypatch, cfg, dm, fit, cov, cm)
        first = runs[(1, *LAYOUTS[0])]
        assert first.invalid_redraws > 0
        assert len(first.warnings) == 1
        assert "invalid bootstrap replicates redrawn" in first.warnings[0]
        assert_same_draws(runs, "wild")

    def test_parametric_does_not_depend_on_threads_or_chunk_size(
            self, few_redraws, monkeypatch):
        dm, fit, cov, cm, cfg = few_redraws
        cfg = BootstrapConfig("parametric", cfg.B, cfg.seed)
        assert_same_draws(runs_by_layout(monkeypatch, cfg, dm, fit, cov, cm), "parametric")

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


@pytest.fixture(scope="module")
def floor_case():
    """A scalar two-group fit and the first-attempt h'Dh of its B=1000 replicates.

    h'Dh comes from ``oracles.sequential_refit``, which sums as the engine
    does, so these are the exact values the engine compares with its floor.
    """
    ds, dm, fit, cov = fitted(random_dataset(60, k=2, d=1, c=1, n_i=(10, 12)))
    H, cfg = build_family("two_sample", 2, 1).H, BootstrapConfig("wild", 1000, 3)
    engine = _Engine("wild", dm, fit, cov, H, cfg.B)
    rngs = replicate_streams(np.random.Generator(np.random.Philox(0)), cfg.seed,
                             np.arange(cfg.B), 0)
    Y = engine.draw(rngs, np.empty((dm.n, cfg.B, 1)))
    mu, D = sequential_refit(engine.XG, dm.X, engine.wU1sq, Y.transpose(1, 0, 2))
    hDh = studentize(mu, D, H, dm.n)[1][:, 0]
    return dm, fit, cov, cfg, hDh


def with_floor(cov, floor):
    """`cov` whose observed D puts the replicate floor of the contrast (1, -1)
    at `floor` exactly: eps * (D[0] + D[1]) with D[1] = 0 is exact."""
    D = np.array([floor / np.finfo(float).eps, 0.0])
    return CovarianceEstimate(D=D, wU1sq=cov.wU1sq, group_sigmas=cov.group_sigmas)


class TestFloor:
    """A replicate is valid only if its h'Dh exceeds eps times the observed one."""

    def test_at_the_floor_is_redrawn_and_a_float_above_is_kept(self, floor_case):
        dm, fit, cov, cfg, hDh = floor_case
        cfg = BootstrapConfig("wild", 100, cfg.seed)
        low = np.sort(hDh[:100])
        b = int(np.argmin(hDh[:100]))
        assert low[0] < low[1]
        expected = run_bootstrap(cfg, dm, fit, cov, build_family("two_sample", 2, 1)).A_star
        kept = run_bootstrap(cfg, dm, fit, with_floor(cov, np.nextafter(low[0], 0)),
                             build_family("two_sample", 2, 1))
        assert kept.invalid_redraws == 0
        assert np.array_equal(kept.A_star, expected)
        redrawn = run_bootstrap(cfg, dm, fit, with_floor(cov, low[0]),
                                build_family("two_sample", 2, 1))
        assert redrawn.invalid_redraws == 1
        others = np.arange(100) != b
        assert np.array_equal(redrawn.A_star[others], expected[others])
        assert not np.array_equal(redrawn.A_star[b], expected[b])

    @pytest.mark.parametrize("B, redraws, error, warned", [
        (100, 1, False, True),  # 1% of B: kept, with the warning
        (100, 2, True, True),  # above 1%: aborted
        (1000, 1, False, False),  # 0.1% of B: no warning
        (1000, 2, False, True),  # above 0.1%: the warning
    ])
    def test_abort_and_warning_shares_are_strict(self, floor_case, B, redraws, error,
                                                 warned):
        dm, fit, cov, cfg, hDh = floor_case
        low = np.sort(hDh[:B])
        assert low[redraws - 1] < low[redraws]
        cfg = BootstrapConfig("wild", B, cfg.seed)
        floored = with_floor(cov, low[redraws - 1])
        if error:
            with pytest.raises(EstimationError, match=f"more than 1% .*{redraws} redraws"):
                run_bootstrap(cfg, dm, fit, floored, build_family("two_sample", 2, 1))
            return
        draws = run_bootstrap(cfg, dm, fit, floored, build_family("two_sample", 2, 1))
        assert draws.invalid_redraws == redraws
        assert bool(draws.warnings) == warned


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
        engine = _Engine("parametric", dm, None, cov, build_family("two_sample", 2, 2).H, 1000)
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
        engine = _Engine("parametric", dm, None, cov, build_family("two_sample", 2, 2).H, 1000)
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
        engine = _Engine("parametric", dm, fit, cov, build_family("two_sample", 2, 2).H, 50)
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
            run_bootstrap(BootstrapConfig("parametric", 10, 1), dm, fit, cov,
                          build_family("two_sample", 2, 1))

    def test_missing_group_covariances_are_derived(self, fitted_small):
        # An estimate without covariances gets them from groupwise_cov, the
        # same function sandwich asks, so the draws are the same bits.
        ds, dm, fit, cov = fitted_small
        assert cov.group_sigmas is not None
        bare = CovarianceEstimate(D=cov.D, wU1sq=cov.wU1sq, group_sigmas=None)
        cfg, cm = BootstrapConfig("parametric", 50, 1), build_family("two_sample", 2, 2)
        expected = run_bootstrap(cfg, dm, fit, cov, cm).A_star
        assert np.array_equal(run_bootstrap(cfg, dm, fit, bare, cm).A_star, expected)


class TestConfigAndDump:
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_draws_rejected(self, value):
        with pytest.raises(EstimationError, match="contain non-finite values"):
            BootstrapDraws(A_star=np.array([[1.0], [value]]), kind="wild", seed=0)

    @pytest.mark.parametrize("A_star", [np.ones(3), [1.0, 2.0], np.zeros((0, 2)),
                                        np.zeros((3, 0)), np.ones((2, 2, 1))],
                             ids=["1-d", "1-d-list", "no-rows", "no-columns", "3-d"])
    def test_draws_must_be_a_non_empty_matrix(self, A_star):
        """One EstimationError line, not numpy's AxisError, an AttributeError on
        a list, or a ZeroDivisionError in adjust_level for B = 0."""
        with pytest.raises(EstimationError) as info:
            BootstrapDraws(A_star=A_star, kind="wild", seed=0)
        assert str(info.value) == "bootstrap statistics must be a B x r matrix with B, r >= 1"

    def test_a_list_of_rows_is_stored_as_float64(self):
        draws = BootstrapDraws(A_star=[[1, -2], [3, 0]], kind="wild", seed=0)
        assert draws.A_star.dtype == np.float64
        assert draws.A_star.tolist() == [[1.0, -2.0], [3.0, 0.0]]

    def test_invalid_kind(self):
        with pytest.raises(ConfigError, match="unknown bootstrap kind"):
            BootstrapConfig("jackknife", 10, 1)

    def test_invalid_b(self):
        with pytest.raises(ConfigError, match="B must be >= 1"):
            BootstrapConfig("wild", 0, 1)

    @pytest.mark.parametrize("B, seed", [(100.0, 1), (True, 1), (np.float64(100), 1),
                                         (100, 1.0), (100, False), (100, "1")])
    def test_non_integer_b_or_seed_rejected(self, B, seed):
        with pytest.raises(ConfigError, match="must be an integer, got"):
            BootstrapConfig("wild", B, seed)

    def test_numpy_integers_give_the_python_integer_run(self, fitted_small):
        _, dm, fit, cov = fitted_small
        cfg = BootstrapConfig("wild", np.int64(60), np.int64(-3))
        assert (type(cfg.B), type(cfg.seed)) == (int, int)
        want = run_bootstrap(BootstrapConfig("wild", 60, -3), dm, fit, cov,
                             build_family("two_sample", 2, 2))
        got = run_bootstrap(cfg, dm, fit, cov, build_family("two_sample", 2, 2))
        assert got.A_star.tobytes() == want.A_star.tobytes()

    def test_b_beyond_stream_range(self):
        """Replicate b draws from stream index b, which must be below 2**32."""
        assert BootstrapConfig("wild", 2**32, 1).B == 2**32
        for B in (2**32 + 1, 10**30):
            with pytest.raises(ConfigError, match=r"B must be <= 2\*\*32"):
                BootstrapConfig("wild", B, 1)

    def test_draws_csv_roundtrip(self, fitted_small, tmp_path):
        ds, dm, fit, cov = fitted_small
        cm = build_family("two_sample", 2, 2)
        draws = run_bootstrap(BootstrapConfig("wild", 20, 1), dm, fit, cov, cm)
        path = tmp_path / "draws.csv"
        save_draws_csv(draws, str(path), labels=cm.labels)
        with open(path, newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == list(cm.labels)
        assert all(", " in label for label in cm.labels)
        loaded = np.loadtxt(str(path), delimiter=",", skiprows=1)
        assert np.allclose(loaded, draws.A_star, rtol=1e-15)
