import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from bootmctp import (
    Dataset,
    EstimationError,
    SimScenario,
    SimulationError,
    run_study,
    validate,
    write_study_csv,
)
from bootmctp import simgen
from bootmctp.simgen import (
    default_nu,
    gen_covariates,
    gen_dataset,
    scenario_sigma,
    standardized_errors,
)
from bootmctp._rng import derive_seed, substream


class TestStandardizedErrors:
    def test_normal_moments(self):
        rng = np.random.default_rng(0)
        x = standardized_errors("normal", 1_000_000, 1, rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_chi2_moments_and_skewness(self):
        rng = np.random.default_rng(1)
        x = standardized_errors("chi2_3", 1_000_000, 1, rng).ravel()
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02
        skew = np.mean(x**3)
        assert skew > 0.5  # chi-square(3) standardized skewness ~ 1.63

    def test_t3_variance(self):
        rng = np.random.default_rng(2)
        x = standardized_errors("t3", 1_000_000, 1, rng)
        assert abs(x.var() - 1.0) < 0.05

    def test_lognormal_moments(self):
        rng = np.random.default_rng(3)
        x = standardized_errors("lognormal", 1_000_000, 1, rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.05

    def test_dexp_moments(self):
        rng = np.random.default_rng(4)
        x = standardized_errors("dexp", 1_000_000, 1, rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_unknown_distribution(self):
        with pytest.raises(SimulationError):
            standardized_errors("cauchy", 10, 1, np.random.default_rng(0))


class TestScenarioSigma:
    def test_singular_d2_is_rank_one(self):
        sigmas, _ = scenario_sigma(3, 2, 3)
        for s in sigmas:
            assert np.linalg.det(s) == pytest.approx(0.0, abs=1e-12)
            assert np.array_equal(s, np.array([[1.0, 0.5], [0.5, 0.25]]))

    def test_homoscedastic_off_diagonals(self):
        sigmas, _ = scenario_sigma(1, 3, 4)
        for s in sigmas:
            assert np.allclose(np.diag(s), 1.0)
            off = s[~np.eye(3, dtype=bool)]
            assert np.allclose(off, 0.5)

    def test_heteroscedastic_last_group_inflated(self):
        sigmas, _ = scenario_sigma(2, 2, 3)
        assert np.allclose(np.diag(sigmas[0]), 1.0)
        assert np.allclose(np.diag(sigmas[-1]), 2.0)
        assert np.allclose(sigmas[-1][0, 1], 0.5)

    def test_square_root_reconstructs(self):
        for cov, d in ((1, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
            sigmas, roots = scenario_sigma(cov, d, 3)
            for s, L in zip(sigmas, roots):
                assert np.abs(L @ L.T - s).max() < 1e-10

    def test_unsupported_singular_dimension(self):
        with pytest.raises(SimulationError, match="singular"):
            scenario_sigma(3, 5, 2)


class TestGenCovariates:
    def test_support_and_sign_pattern(self):
        rng = substream(7, 0)
        for rows in (7, 10, 11):
            Z = gen_covariates(rows, rng)
            assert Z.shape == (rows, 2)
            assert np.all((Z[:, 0] > -10) & (Z[:, 0] < 10))
            half = math.ceil(rows / 2)
            assert np.all((Z[:half, 1] >= 0) & (Z[:half, 1] < 5))
            assert np.all((Z[half:, 1] > -2) & (Z[half:, 1] < -1))

    def test_generated_dataset_validates(self):
        scenario = SimScenario(k=3, d=2, contrast_family="dunnett")
        ds = gen_dataset(scenario, substream(8, 0))
        assert validate(ds).ok


class TestScenario:
    def test_sample_patterns(self):
        assert SimScenario(k=3, d=2).sample_sizes == (10, 10, 10)
        assert SimScenario(k=3, d=2, sample_pattern=2).sample_sizes == (20, 10, 10)
        assert SimScenario(k=3, d=2, sample_pattern=3).sample_sizes == (10, 10, 20)
        assert SimScenario(k=2, d=2, multiplier=3).sample_sizes == (30, 30)

    def test_null_means_all_zero(self):
        mu = SimScenario(k=3, d=2).group_means()
        assert np.all(mu == 0.0)

    def test_shift_alternative(self):
        sc = SimScenario(k=3, d=3, alternative="shift", delta=3.0)
        assert np.array_equal(sc.group_means()[-1], [3.0, 3.0, 3.0])
        assert np.all(sc.group_means()[:-1] == 0.0)

    def test_one_point_alternative(self):
        sc = SimScenario(k=3, d=3, alternative="one_point", delta=2.0)
        assert np.array_equal(sc.group_means()[-1], [2.0, 0.0, 0.0])

    def test_trend_alternative(self):
        sc = SimScenario(k=3, d=4, alternative="trend", delta=2.0)
        assert np.allclose(sc.group_means()[-1], [2.0, 1.0, 2.0 / 3.0, 0.5])

    def test_delta_alternative_consistency(self):
        with pytest.raises(SimulationError, match="delta"):
            SimScenario(k=3, d=2, alternative="shift", delta=0.0)
        with pytest.raises(SimulationError, match="delta"):
            SimScenario(k=3, d=2, alternative="null", delta=1.0)

    def test_default_nu_pattern(self):
        assert np.array_equal(default_nu(2), [[-0.5, -1.0], [1.5, 3.0]])
        assert np.array_equal(
            default_nu(4), [[-0.5, 1.0, 1.0, -1.0], [1.5, 2.0, 2.0, 3.0]]
        )

    def test_single_outcome_rejected_at_construction(self):
        # the default regression coefficients need d >= 2
        with pytest.raises(SimulationError, match="d >= 2"):
            SimScenario(k=2, d=1)

    def test_singular_dimension_guard(self):
        with pytest.raises(SimulationError, match="singular"):
            SimScenario(k=3, d=5, covariance=3)


class TestGenDataset:
    def test_shapes_and_groups(self):
        sc = SimScenario(k=3, d=2, sample_pattern=2, multiplier=2)
        ds = gen_dataset(sc, substream(9, 0))
        assert ds.n_i == (40, 20, 20)
        assert (ds.k, ds.d, ds.c) == (3, 2, 2)

    def test_large_shift_is_detected(self):
        sc = SimScenario(
            k=2, d=2, contrast_family="two_sample", alternative="shift", delta=50.0
        )
        ds = gen_dataset(sc, substream(10, 0))
        from bootmctp import BootstrapConfig, run_mctp, two_sample

        res = run_mctp(ds, two_sample(2, 2), BootstrapConfig("wild", 200, 1), 0.05)
        assert res.global_reject


def zero_residual_dataset():
    # No covariates and outcomes constant within groups of 4: the fit is
    # binary-exact, the residuals are exactly zero, the studentizer too.
    return Dataset.from_group_blocks(
        ["G1", "G2"], [np.full((4, 2), 1.0), np.full((4, 2), 2.0)]
    )


class TestRunStudy:
    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError, match="runs"):
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=0, B=100, alpha=0.05, seed=1)

    def test_smoke_two_methods(self, tmp_path):
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        results = run_study([sc], runs=40, B=100, alpha=0.05, seed=2)
        assert [r.method for r in results] == ["wild", "parametric"]
        for r in results:
            assert 0.0 <= r.rate <= 100.0
            assert r.ci_lower <= r.rate <= r.ci_upper
        path = tmp_path / "study.csv"
        write_study_csv(results, str(path))
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 method rows

    def test_failed_run_names_scenario_run_and_seed(self, monkeypatch):
        flat = zero_residual_dataset()
        calls = []

        def gen_dataset_failing_once(scenario, rng):
            calls.append(scenario)
            return flat if len(calls) == 5 else gen_dataset(scenario, rng)

        monkeypatch.setattr(simgen, "gen_dataset", gen_dataset_failing_once)
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        with pytest.raises(SimulationError) as info:
            run_study([sc, sc], runs=3, B=50, alpha=0.05, seed=7, workers=1)
        # The fifth dataset is scenario 1, run 1.
        assert str(info.value).startswith(
            f"scenario 1, run 1 (dataset seed {derive_seed(7, 1, 1, 0)}) failed: "
            "zero variance"
        )
        assert isinstance(info.value.__cause__, EstimationError)

    def test_workers_do_not_change_results(self):
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        seq = run_study([sc], runs=12, B=60, alpha=0.05, seed=3, workers=1)
        par = run_study([sc], runs=12, B=60, alpha=0.05, seed=3, workers=2)
        assert [r.rate for r in seq] == [r.rate for r in par]

    def test_two_scenario_study_does_not_depend_on_workers(self, monkeypatch):
        pools = []

        class CountedPool(simgen.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", CountedPool)
        scenarios = [
            SimScenario(k=2, d=2, contrast_family="two_sample"),
            SimScenario(k=3, d=2, contrast_family="dunnett", alternative="shift",
                        delta=1.5),
        ]
        seq = run_study(scenarios, runs=6, B=60, alpha=0.05, seed=5, workers=1)
        par = run_study(scenarios, runs=6, B=60, alpha=0.05, seed=5, workers=2)
        assert len(pools) == 1
        assert len(par) == 4
        assert par == seq

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched gen_dataset reaches workers only by fork")
    def test_failed_run_is_named_through_the_pool(self, monkeypatch):
        flat = zero_residual_dataset()
        data_seed = derive_seed(7, 1, 1, 0)
        key = substream(data_seed, 0).bit_generator.state["state"]["key"]

        def gen_dataset_failing_for_key(scenario, rng):
            if np.array_equal(rng.bit_generator.state["state"]["key"], key):
                return flat
            return gen_dataset(scenario, rng)

        monkeypatch.setattr(simgen, "gen_dataset", gen_dataset_failing_for_key)
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        with pytest.raises(SimulationError) as info:
            run_study([sc, sc], runs=3, B=50, alpha=0.05, seed=7, workers=2)
        assert str(info.value).startswith(
            f"scenario 1, run 1 (dataset seed {data_seed}) failed: zero variance"
        )

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched gen_dataset reaches workers only by fork")
    def test_crashed_worker_is_named_through_the_pool(self, monkeypatch):
        key = substream(derive_seed(7, 0, 1, 0), 0).bit_generator.state["state"]["key"]

        def gen_dataset_exiting_for_key(scenario, rng):
            if np.array_equal(rng.bit_generator.state["state"]["key"], key):
                os._exit(1)
            return gen_dataset(scenario, rng)

        monkeypatch.setattr(simgen, "gen_dataset", gen_dataset_exiting_for_key)
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        with pytest.raises(SimulationError) as info:
            run_study([sc], runs=16, B=50, alpha=0.05, seed=7, workers=2)
        # 16 runs in 8 blocks of 2: run 1 ends its worker inside block 0.
        assert str(info.value).startswith(
            "scenario 0, runs 0-1: a worker process died before this block finished"
        )
        assert isinstance(info.value.__cause__, BrokenProcessPool)

    def test_power_monotone_in_delta(self):
        # common random numbers across delta values make the curve clean
        deltas = [0.5, 1.0, 1.5, 2.0, 3.0]
        scenarios = [
            SimScenario(
                k=3, d=2, contrast_family="dunnett", alternative="shift", delta=dlt
            )
            for dlt in deltas
        ]
        results = run_study(scenarios, runs=80, B=150, alpha=0.05, seed=4, workers=2)
        wild = [r.rate for r in results if r.method == "wild"]
        assert all(a <= b + 1e-12 for a, b in zip(wild, wild[1:])), wild
