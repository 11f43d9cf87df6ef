import math
import multiprocessing
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from bootmctp import (
    ConfigError,
    Dataset,
    EstimationError,
    SimScenario,
    SimulationError,
    run_study,
    validate,
    write_study_csv,
)
from bootmctp import bootstrap, simgen
from bootmctp.simgen import (
    _binomial_ci,
    _block_bounds,
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
        sigmas, _ = scenario_sigma(SimScenario(k=3, d=2, covariance=3))
        for s in sigmas:
            assert np.linalg.det(s) == pytest.approx(0.0, abs=1e-12)
            assert np.array_equal(s, np.array([[1.0, 0.5], [0.5, 0.25]]))

    def test_homoscedastic_off_diagonals(self):
        sigmas, _ = scenario_sigma(SimScenario(k=4, d=3, covariance=1))
        for s in sigmas:
            assert np.allclose(np.diag(s), 1.0)
            off = s[~np.eye(3, dtype=bool)]
            assert np.allclose(off, 0.5)

    def test_heteroscedastic_last_group_inflated(self):
        sigmas, _ = scenario_sigma(SimScenario(k=3, d=2, covariance=2))
        assert np.allclose(np.diag(sigmas[0]), 1.0)
        assert np.allclose(np.diag(sigmas[-1]), 2.0)
        assert np.allclose(sigmas[-1][0, 1], 0.5)

    def test_square_root_reconstructs(self):
        for cov, d in ((1, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
            sigmas, roots = scenario_sigma(SimScenario(k=3, d=d, covariance=cov))
            for s, L in zip(sigmas, roots):
                assert np.abs(L @ L.T - s).max() < 1e-10


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

    def test_dispersed_and_not_collinear_or_redrawn(self):
        """Constant columns, then collinear ones, are redrawn: the third
        attempt is the first draw of the real generator."""

        class Scripted:
            def __init__(self, script, rng):
                self.script, self.rng, self.calls = list(script), rng, 0

            def uniform(self, low, high, size):
                self.calls += 1
                if self.script:
                    return np.asarray(self.script.pop(0), dtype=float)
                return self.rng.uniform(low, high, size=size)

        z2 = [[1.0, 2.0, 3.0, 4.0, 4.5], [-1.1, -1.3, -1.5, -1.7, -1.9]]
        script = [np.zeros(10), [0.5] * 5, [-1.5] * 5,  # no spread
                  4.0 * np.concatenate(z2), *z2]  # corr(z1, z2) = 1
        rng = Scripted(script, substream(9, 0))
        Z = gen_covariates(10, rng)
        assert rng.calls == 9
        assert np.array_equal(Z, gen_covariates(10, substream(9, 0)))

    def test_gives_up_after_the_attempt_limit(self):
        class Constant:
            def uniform(self, low, high, size):
                return np.full(size, float(low))

        with pytest.raises(SimulationError, match="not met after 1000 attempts"):
            gen_covariates(10, Constant())

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

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(SimulationError, match="delta must be finite"):
            SimScenario(k=3, d=2, alternative="shift", delta=delta)

    def test_default_nu_pattern(self):
        assert np.array_equal(default_nu(2), [[-0.5, -1.0], [1.5, 3.0]])
        assert np.array_equal(
            default_nu(4), [[-0.5, 1.0, 1.0, -1.0], [1.5, 2.0, 2.0, 3.0]]
        )

    @pytest.mark.parametrize("change, message", [
        ({"covariance": 4}, "unknown covariance scenario 4"),
        ({"sample_pattern": 0}, "unknown sample pattern 0"),
        ({"multiplier": 0}, "sample-size multiplier must be >= 1"),
        ({"alternative": "drift", "delta": 1.0}, "unknown alternative 'drift'"),
        ({"alternative": "shift", "delta": -1.0}, "positive otherwise"),
        ({"covariance": True}, "covariance must be an integer, got True"),
        ({"alternative": "shift", "delta": True}, "delta must be a real number, got True"),
        ({"sample_pattern": 2.0}, "sample_pattern must be an integer, got 2.0"),
        ({"k": 3.0}, "k must be an integer, got 3.0"),
        ({"d": np.float64(2.0)}, f"d must be an integer, got {np.float64(2.0)!r}"),
        ({"multiplier": 1.5}, "multiplier must be an integer, got 1.5"),
        ({"alternative": "shift", "delta": "1"}, "delta must be a real number, got '1'"),
        ({"contrast_family": ["x"]}, "contrast_family ['x']: unknown contrast family ['x']"),
    ])
    def test_scenario_rules(self, change, message):
        with pytest.raises(SimulationError, match=re.escape(message)):
            SimScenario(**{"k": 3, "d": 2, **change})

    def test_single_outcome_rejected_at_construction(self):
        # the default regression coefficients need d >= 2
        with pytest.raises(SimulationError, match="d >= 2"):
            SimScenario(k=2, d=1)

    def test_singular_dimension_guard(self):
        assert simgen.SINGULAR_DIMS == (2, 3, 4)
        with pytest.raises(SimulationError, match=r"only defined for d in \(2, 3, 4\)"):
            SimScenario(k=3, d=5, covariance=3)

    @pytest.mark.parametrize("family, message", [
        ("tukeyy", "contrast_family 'tukeyy': unknown contrast family 'tukeyy'"),
        ("two_sample", "contrast_family 'two_sample': two-sample contrasts "
                       "require k=2 groups, got k=3"),
    ])
    def test_contrast_family_checked_against_k(self, family, message):
        with pytest.raises(SimulationError) as info:
            SimScenario(k=3, d=2, contrast_family=family)
        assert str(info.value) == message

    @pytest.mark.parametrize("family", ["two_sample", "dunnett", "tukey", "grand_mean"])
    def test_every_family_accepted_at_k2(self, family):
        assert SimScenario(k=2, d=2, contrast_family=family).contrast_family == family

    def test_numpy_integers_stored_as_python_ints(self):
        sc = SimScenario(k=np.int64(3), d=np.int32(2), covariance=np.uint8(2),
                         sample_pattern=np.int16(3), multiplier=np.int64(2),
                         alternative="shift", delta=np.float64(0.5))
        assert sc == SimScenario(k=3, d=2, covariance=2, sample_pattern=3, multiplier=2,
                                 alternative="shift", delta=0.5)
        assert all(type(getattr(sc, name)) is int
                   for name in ("k", "d", "covariance", "sample_pattern", "multiplier"))
        assert type(sc.delta) is np.float64
        assert type(SimScenario(k=3, d=2, alternative="shift", delta=1).delta) is int


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
        from bootmctp import BootstrapConfig, build_family, run_mctp

        res = run_mctp(ds, build_family("two_sample", 2, 2), BootstrapConfig("wild", 200, 1),
                       0.05)
        assert res.global_reject


def zero_residual_dataset():
    # No covariates and outcomes constant within groups of 4: the fit is
    # binary-exact, the residuals are exactly zero, the studentizer too.
    return Dataset.from_group_blocks(
        ["G1", "G2"], [np.full((4, 2), 1.0), np.full((4, 2), 2.0)]
    )


class TestBinomialCi:
    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_equals_beta_ppf_bitwise(self, level):
        """Clopper-Pearson bounds equal scipy.stats.beta.ppf for all x <= n <= 200."""
        x, n = np.array([(x, n) for n in range(201) for x in range(n + 1)]).T
        a = 1.0 - level
        with np.errstate(invalid="ignore"):
            lo = np.where(x == 0, 0.0, stats.beta.ppf(a / 2, x, n - x + 1))
            hi = np.where(x == n, 1.0, stats.beta.ppf(1 - a / 2, x + 1, n - x))
        got = np.array([_binomial_ci(int(xi), int(ni), level) for xi, ni in zip(x, n)])
        assert got.tobytes() == np.column_stack([lo, hi]).tobytes()

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**6])
    def test_equals_beta_ppf_bitwise_for_large_studies(self, level, n):
        """The same pin at study sizes, at the edges and a third of the way in."""
        x = np.array([0, 1, n // 3, n - 1, n])
        a = 1.0 - level
        with np.errstate(invalid="ignore"):
            lo = np.where(x == 0, 0.0, stats.beta.ppf(a / 2, x, n - x + 1))
            hi = np.where(x == n, 1.0, stats.beta.ppf(1 - a / 2, x + 1, n - x))
        got = np.array([_binomial_ci(int(xi), n, level) for xi in x])
        assert got.tobytes() == np.column_stack([lo, hi]).tobytes()

    def test_missing_kernel_names_the_export_and_scipy_version(self, monkeypatch):
        from scipy import __version__

        monkeypatch.setattr(simgen, "_scipy_extension",
                            lambda name: SimpleNamespace(__pyx_capi__={}))
        simgen._ibeta_inv.cache_clear()
        try:
            with pytest.raises(ImportError) as info:
                _binomial_ci(1, 2)
        finally:
            simgen._ibeta_inv.cache_clear()
        assert str(info.value) == (f"scipy {__version__}'s special._ufuncs_cxx has no "
                                   "_export_ibeta_inv_double")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs for run_study, so that workers=2 opens a pool on any host."""
    monkeypatch.setattr(simgen, "_usable_cpus", lambda: 2)


class TestRunStudy:
    @pytest.mark.parametrize("alpha", [1.5, 0.0, math.nan])
    def test_alpha_rejected_before_any_run(self, monkeypatch, alpha):
        def no_dataset(scenario, rng):
            raise AssertionError("gen_dataset was called")

        monkeypatch.setattr(simgen, "gen_dataset", no_dataset)
        with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)") as info:
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=2, B=20, alpha=alpha, seed=1)
        assert not hasattr(info.value, "__notes__")

    def test_non_scenario_rejected_before_any_run(self, monkeypatch):
        def no_dataset(scenario, rng):
            raise AssertionError("gen_dataset was called")

        monkeypatch.setattr(simgen, "gen_dataset", no_dataset)
        with pytest.raises(SimulationError) as info:
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample"),
                       {"k": 3, "d": 2}], runs=2, B=20, alpha=0.05, seed=1)
        assert str(info.value) == "scenarios[1] must be a SimScenario, got dict"
        assert not hasattr(info.value, "__notes__")

    @pytest.mark.parametrize("B, seed, message", [
        (0, 1, "bootstrap replicate count B must be >= 1"),
        (20, 1.5, "bootstrap seed must be an integer, got 1.5"),
        (20.0, 1, "bootstrap B must be an integer, got 20.0"),
    ])
    def test_bootstrap_settings_rejected_before_any_run(self, monkeypatch, B, seed,
                                                         message):
        def no_dataset(scenario, rng):
            raise AssertionError("gen_dataset was called")

        monkeypatch.setattr(simgen, "gen_dataset", no_dataset)
        with pytest.raises(ConfigError) as info:
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=2, B=B, alpha=0.05, seed=seed)
        assert str(info.value) == message
        assert not hasattr(info.value, "__notes__")

    def test_numpy_integer_seed_and_b_give_the_python_integer_study(self):
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        want = run_study([sc], runs=2, B=30, alpha=0.05, seed=5)
        got = run_study([sc], runs=2, B=np.int64(30), alpha=0.05, seed=np.int64(5))
        assert got == want
        assert {(type(r.B), type(r.seed)) for r in got} == {(int, int)}

    @pytest.mark.parametrize("runs, workers, message", [
        (2.5, 1, "runs must be an integer, got 2.5"),
        (True, 1, "runs must be an integer, got True"),
        ("2", 1, "runs must be an integer, got '2'"),
        (2, 1.5, "workers must be an integer, got 1.5"),
        (2, True, "workers must be an integer, got True"),
        (2, "2", "workers must be an integer, got '2'"),
    ])
    def test_non_integer_runs_or_workers_rejected_before_any_run(
            self, monkeypatch, runs, workers, message):
        def no_dataset(scenario, rng):
            raise AssertionError("gen_dataset was called")

        monkeypatch.setattr(simgen, "gen_dataset", no_dataset)
        with pytest.raises(SimulationError) as info:
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=runs, B=20, alpha=0.05, seed=1, workers=workers)
        assert str(info.value) == message
        assert not hasattr(info.value, "__notes__")

    def test_numpy_integer_runs_and_workers_give_the_python_integer_study(self):
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        want = run_study([sc], runs=2, B=30, alpha=0.05, seed=5)
        got = run_study([sc], runs=np.int64(2), B=30, alpha=0.05, seed=5,
                        workers=np.int32(1))
        assert got == want
        assert {type(r.runs) for r in got} == {int}

    @pytest.mark.parametrize("scenarios", [
        None, SimScenario(k=2, d=2, contrast_family="two_sample")])
    def test_scenarios_that_are_not_iterable_rejected(self, scenarios):
        with pytest.raises(SimulationError) as info:
            run_study(scenarios, runs=2, B=20, alpha=0.05, seed=1)
        assert str(info.value) == (f"scenarios must be an iterable of SimScenario, "
                                   f"got {scenarios!r}")

    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError, match="runs"):
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=0, B=100, alpha=0.05, seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(SimulationError, match="workers must be >= 1"):
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=2, B=20, alpha=0.05, seed=1, workers=workers)

    def test_huge_run_count_needs_no_memory_per_run(self, monkeypatch):
        """runs = 2**62 starts its first run at once, with no per-run list."""

        class FirstRun(Exception):
            pass

        def gen_dataset_stopping(scenario, rng):
            raise FirstRun

        monkeypatch.setattr(simgen, "gen_dataset", gen_dataset_stopping)
        with pytest.raises(FirstRun):
            run_study([SimScenario(k=2, d=2, contrast_family="two_sample")],
                      runs=2**62, B=20, alpha=0.05, seed=1, workers=1)

    @pytest.mark.parametrize("runs, count", [(16, 8), (12, 8), (3, 3), (7, 1), (1, 1)])
    def test_block_bounds_split_as_array_split(self, runs, count):
        want = [(int(b[0]), int(b[-1]) + 1)
                for b in np.array_split(np.arange(runs), count)]
        assert _block_bounds(runs, count) == want

    def test_single_block_study_runs_without_a_pool(self, monkeypatch):
        """One scenario and one run: no pool, the same result as workers=1."""
        pools = []

        class CountedPool(simgen.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", CountedPool)
        sc = SimScenario(k=3, d=2, contrast_family="dunnett", alternative="shift",
                         delta=2.0)
        seq = run_study([sc], runs=1, B=60, alpha=0.05, seed=5, workers=1)
        par = run_study([sc], runs=1, B=60, alpha=0.05, seed=5, workers=2)
        assert pools == []
        assert par == seq

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

    def test_study_csv_columns(self, tmp_path):
        """The scenario columns are SimScenario's fields, in their order."""
        sc = SimScenario(k=3, d=2, distribution="t3", covariance=2, sample_pattern=3,
                         multiplier=2, contrast_family="tukey", alternative="shift",
                         delta=0.5)
        res = simgen.StudyResult(scenario=sc, method="wild", rate=12.5, ci_lower=0.1,
                                 ci_upper=1 / 3, runs=8, B=40, seed=9)
        path = tmp_path / "study.csv"
        write_study_csv([res], str(path))
        assert path.read_text().splitlines() == [
            "k,d,distribution,covariance,sample_pattern,multiplier,contrast_family,"
            "alternative,delta,method,rate_percent,ci_lower_percent,ci_upper_percent,"
            "runs,B,seed",
            "3,2,t3,2,3,2,tukey,shift,0.5,wild,12.5,0.1,0.3333333333333333,8,40,9",
        ]

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

    @pytest.mark.usefixtures("two_cpus")
    def test_workers_do_not_change_results(self):
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        seq = run_study([sc], runs=12, B=60, alpha=0.05, seed=3, workers=1)
        par = run_study([sc], runs=12, B=60, alpha=0.05, seed=3, workers=2)
        assert [r.rate for r in seq] == [r.rate for r in par]

    @pytest.mark.usefixtures("two_cpus")
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

    @pytest.mark.parametrize("cpus, runs, procs", [
        (8, 2, 2),  # one scenario of two runs: two tasks
        (3, 40, 3),  # 40 tasks on three usable CPUs
    ])
    def test_pool_has_no_more_processes_than_tasks_or_cpus(self, monkeypatch,
                                                           cpus, runs, procs):
        sizes = []

        class ThreadBackedPool(ThreadPoolExecutor):  # starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", ThreadBackedPool)
        monkeypatch.setattr(simgen, "_usable_cpus", lambda: cpus)
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        par = run_study([sc], runs=runs, B=20, alpha=0.05, seed=3, workers=10**5)
        assert sizes == [procs]
        assert par == run_study([sc], runs=runs, B=20, alpha=0.05, seed=3, workers=1)

    @pytest.mark.usefixtures("two_cpus")
    def test_pool_workers_bootstrap_on_one_thread(self, monkeypatch):
        """A threaded cell gives the same rates through single-threaded workers."""
        probes = []

        class ProbedPool(simgen.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probes.append(self.submit(bootstrap._thread_count, "wild", 10**4, 5))

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", ProbedPool)
        sc = SimScenario(k=2, d=5, multiplier=15, contrast_family="two_sample")
        # n*d = 1500 reaches both gates: one process threads this cell's bootstraps.
        assert sum(sc.sample_sizes) * sc.d >= max(bootstrap.THREAD_MIN_CELLS.values())
        seq = run_study([sc], runs=4, B=300, alpha=0.05, seed=9, workers=1)
        par = run_study([sc], runs=4, B=300, alpha=0.05, seed=9, workers=2)
        assert [probe.result() for probe in probes] == [1]
        assert par == seq
        assert bootstrap.MAX_THREADS == 2  # each worker chose 1; the cap is untouched

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched gen_dataset reaches workers only by fork")
    @pytest.mark.usefixtures("two_cpus")
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

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="exception notes are new in Python 3.11")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.usefixtures("two_cpus")
    def test_other_fault_keeps_its_type_and_notes_its_run(self, monkeypatch, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched gen_dataset reaches workers only by fork")
        data_seed = derive_seed(7, 1, 1, 0)
        key = substream(data_seed, 0).bit_generator.state["state"]["key"]

        def gen_dataset_broken_for_key(scenario, rng):
            if np.array_equal(rng.bit_generator.state["state"]["key"], key):
                raise ValueError("operands could not be broadcast together")
            return gen_dataset(scenario, rng)

        monkeypatch.setattr(simgen, "gen_dataset", gen_dataset_broken_for_key)
        sc = SimScenario(k=2, d=2, contrast_family="two_sample")
        with pytest.raises(ValueError, match="could not be broadcast") as info:
            run_study([sc, sc], runs=3, B=50, alpha=0.05, seed=7, workers=workers)
        assert info.value.__notes__ == [f"scenario 1, run 1 (dataset seed {data_seed})"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched gen_dataset reaches workers only by fork")
    @pytest.mark.usefixtures("two_cpus")
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
