import json
import warnings

import numpy as np
import pytest

from bootmctp import (
    BootstrapConfig,
    ConfigError,
    ContrastMatrix,
    Dataset,
    EstimationError,
    SimScenario,
    build_family,
    format_result_table,
    run_mctp,
    run_study,
)
from bootmctp.bootstrap import run_bootstrap
from bootmctp.covariance import sandwich, studentize
from bootmctp.design import build_design, fit_ols
from bootmctp.mctp import (
    _calibrate,
    _fit,
    adjust_level,
    confidence_intervals,
    contrast_quantiles,
    gamma_index,
    local_p_values,
)
from bootmctp.mctp import test_statistics as studentized_statistics
from conftest import draws_of, random_dataset
from oracles import (
    descending_quantile,
    scan_adjust_level,
    scan_fwer,
    scan_p_values,
    welch_type_statistic,
)


def tie_matrix(rng, B, r):
    """Draw matrix with deliberate ties (small integer support)."""
    return rng.integers(0, 6, size=(B, r)).astype(float) - rng.integers(0, 3)


class TestTestStatistics:
    def test_duplicated_groups_give_zero(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((8, 2))
        ds = Dataset.from_group_blocks(["a", "b"], [block, block.copy()])
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        A = studentized_statistics(fit, cov, build_family("two_sample", 2, 2))
        assert np.array_equal(A, np.zeros(2))

    def test_scale_invariance(self):
        ds = random_dataset(1, k=2, d=2, c=1, n_i=(9, 9))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        A = studentized_statistics(fit, cov, build_family("two_sample", 2, 2))
        ds2 = Dataset(groups=ds.groups, n_i=ds.n_i, Y=2.0 * ds.Y, Z=ds.Z)
        dm2 = build_design(ds2)
        fit2 = fit_ols(dm2, ds2)
        cov2 = sandwich(dm2, fit2)
        A2 = studentized_statistics(fit2, cov2, build_family("two_sample", 2, 2))
        assert np.allclose(A, A2, rtol=1e-12)

    def test_matches_scalar_welch_type_oracle(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal(7)
        y2 = rng.standard_normal(12) + 0.8
        ds = Dataset.from_group_blocks(["a", "b"], [y1[:, None], y2[:, None]])
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        A = studentized_statistics(fit, cov, build_family("two_sample", 2, 1))
        assert A[0] == pytest.approx(welch_type_statistic(y1, y2), rel=1e-10)

    def test_zero_denominator_names_contrast(self):
        rng = np.random.default_rng(3)
        # group size 4: the Gram factorization is binary-exact, so the
        # constant column's residuals are exactly zero
        y1 = np.hstack([rng.standard_normal((4, 1)), np.full((4, 1), 2.0)])
        y2 = np.hstack([rng.standard_normal((4, 1)), np.full((4, 1), 5.0)])
        ds = Dataset.from_group_blocks(
            ["a", "b"], [y1, y2], outcome_names=["ok", "flat"]
        )
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        cm = build_family("two_sample", 2, 2, group_names=ds.groups,
                          outcome_names=ds.outcome_names)
        with pytest.raises(EstimationError, match="flat"):
            studentized_statistics(fit, cov, cm)

    def test_overflowing_contrast_names_contrast_without_warning(self):
        """Finite coefficients whose h'Dh overflows fail at the observed fit."""
        ds = random_dataset(4, k=2, d=1, c=0, n_i=(5, 6))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        cm = ContrastMatrix([[1e308, -1e308]], labels=["huge"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="contrast 'huge' overflows"):
                studentized_statistics(fit, cov, cm)


def column_quantile(values, gamma: float) -> float:
    """contrast_quantiles on one contrast: the (gamma*B + 1)-th largest |value|."""
    (q,) = contrast_quantiles(draws_of(np.asarray(values)[:, None]), gamma)
    return float(q)


class TestBootstrapQuantile:
    def test_gamma_zero_is_max(self):
        vals = np.array([0.3, -2.5, 1.1, 0.9])
        assert column_quantile(vals, 0.0) == 2.5

    def test_hand_order_statistic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert column_quantile(vals, 0.25) == 3.0

    def test_last_grid_point_is_min(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert column_quantile(vals, 0.75) == 1.0

    def test_off_grid_rejected(self):
        with pytest.raises(EstimationError, match="not on the grid"):
            column_quantile(np.arange(4.0), 0.3)

    def test_grid_tolerance_edge(self):
        # gamma 1e-9 from a grid point reads as that point; beyond, it is off it
        assert gamma_index(1e-9, 1) == 0
        with pytest.raises(EstimationError, match="not on the grid"):
            gamma_index(np.nextafter(1e-9, 1.0), 1)
        with pytest.raises(EstimationError, match="not on the grid"):
            gamma_index(1.0, 4)  # index B is past the grid's last point (B-1)/B


class TestEstimatedFwer:
    def test_gamma_zero_gives_zero(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((50, 3))
        assert scan_fwer(A, 0) == 0.0

    def test_single_contrast_distinct_values(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 1))
        for g in range(0, 40, 7):
            assert scan_fwer(A, g) == pytest.approx(g / 40)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = tie_matrix(rng, 30, 3)
            vals = [scan_fwer(A, g) for g in range(30)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestAdjustLevel:
    def test_single_contrast_large_grid(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((2000, 1))
        assert adjust_level(draws_of(A), 0.05) == pytest.approx(0.05)

    def test_alpha_below_grid_gives_zero(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((10, 1))
        assert adjust_level(draws_of(A), 0.01) == 0.0

    def test_fast_path_equals_scan_with_ties(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            B = int(rng.integers(5, 60))
            r = int(rng.integers(1, 5))
            A = tie_matrix(rng, B, r)
            alpha = float(rng.uniform(0.01, 0.3))
            gamma = adjust_level(draws_of(A), alpha)
            assert gamma == scan_adjust_level(A, alpha), (trial, B, r)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        A = tie_matrix(rng, 40, 3)
        gammas = [adjust_level(draws_of(A), a) for a in (0.01, 0.05, 0.1, 0.2, 0.5)]
        assert all(a <= b for a, b in zip(gammas, gammas[1:]))

    def test_duplicate_contrast_leaves_gamma_unchanged(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((200, 3))
        A_dup = np.column_stack([A, A[:, 1]])
        assert adjust_level(draws_of(A), 0.05) == adjust_level(draws_of(A_dup), 0.05)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigError):
            adjust_level(draws_of(np.ones((10, 1))), 1.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_interval_is_open(self, alpha):
        with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
            adjust_level(draws_of(np.ones((10, 1))), alpha)


@pytest.mark.parametrize("alpha", ["0.05", None, True])
@pytest.mark.parametrize("entry", ["adjust_level", "run_mctp", "run_study"])
def test_alpha_must_be_a_real_number(entry, alpha):
    calls = {
        "adjust_level": lambda: adjust_level(draws_of(np.ones((10, 1))), alpha),
        "run_mctp": lambda: run_mctp(random_dataset(23), build_family("tukey", 3, 2),
                                     BootstrapConfig("wild", 50, 1), alpha),
        "run_study": lambda: run_study([SimScenario(k=3, d=2)], runs=1, B=20,
                                       alpha=alpha, seed=1),
    }
    with pytest.raises(ConfigError) as info:
        calls[entry]()
    assert str(info.value) == f"alpha must be a real number, got {alpha!r}"


class TestLocalPValues:
    def test_zero_statistic_gives_one(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((50, 2)) + 0.1
        p = local_p_values(draws_of(A), np.zeros(2))
        assert np.all(p == 1.0)

    def test_dominating_statistic_gives_zero(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((50, 2))
        p = local_p_values(draws_of(A), np.array([100.0, -100.0]))
        assert np.all(p == 0.0)

    def test_non_strict_inequality_counts_ties(self):
        draws = draws_of([[1.0], [2.0], [3.0]])
        assert local_p_values(draws, np.array([2.0]))[0] == pytest.approx(2.0 / 3.0)


class TestPValueDuality:
    """p-value / critical-value duality, exact for finite B with ties."""

    def test_equivalences_on_random_and_tied_instances(self):
        """The ranked results equal the definitional oracles bit for bit.

        gamma, the quantiles, the p-values and the intervals are read from
        BootstrapDraws, whose sorted copy and left ranks are made on
        construction; the ranks are compared with their definitional count.
        Then p <= gamma exactly when |A_n| exceeds q.
        """
        models = {}
        for r in range(1, 5):
            ds = random_dataset(30 + r, k=2, d=r, c=1, n_i=(6, 7))
            dm = build_design(ds)
            fit = fit_ols(dm, ds)
            models[r] = fit, sandwich(dm, fit), build_family("two_sample", 2, r)
        rng = np.random.default_rng(15)
        for trial in range(200):
            B = int(rng.integers(4, 50))
            r = int(rng.integers(1, 5))
            A_star = tie_matrix(rng, B, r)
            A_n = tie_matrix(rng, 1, r)[0]
            alpha = float(rng.uniform(0.02, 0.4))
            gamma_ref = scan_adjust_level(A_star, alpha)
            g = round(gamma_ref * B)
            q_ref = np.array([descending_quantile(A_star[:, s], g) for s in range(r)])
            p_ref = scan_p_values(A_star, A_n)
            fit, cov, cm = models[r]
            n = fit.residuals.shape[0]
            _, hDh = studentize(fit.mu_vec[None], cov.D[None], cm.H, n)
            est, half = cm.H @ fit.mu_vec, q_ref * np.sqrt(hDh[0] / n)
            ci_ref = np.column_stack([est - half, est + half])
            draws = draws_of(A_star)
            gamma = adjust_level(draws, alpha)
            q = contrast_quantiles(draws, gamma)
            p = local_p_values(draws, A_n)
            ci = confidence_intervals(cm.H @ fit.mu_vec, q, fit, cov, cm)
            assert gamma == gamma_ref, trial
            for got, ref in ((q, q_ref), (p, p_ref), (ci, ci_ref)):
                assert got.dtype == ref.dtype and got.shape == ref.shape, trial
                assert got.tobytes() == ref.tobytes(), trial
            absA = np.abs(A_star)  # ranks[b, s] = #{b': |A_b's| < |A_bs|}
            ranks_ref = (absA[None] < absA[:, None]).sum(axis=1)
            assert np.array_equal(draws.ranks, ranks_ref), trial
            reject = np.abs(A_n) > q
            assert np.array_equal(p <= gamma, reject), trial
            assert (p.min() <= gamma) == reject.any(), trial

    def test_statistic_on_its_quantile_is_retained(self):
        """|A_n| exactly on its quantile is retained and has p > gamma; one
        float above it is rejected and has p <= gamma ("ties included")."""
        ds = random_dataset(31, k=3, d=2, c=1, n_i=(8, 9, 10))
        cm, cfg = build_family("tukey", 3, 2), BootstrapConfig("wild", 200, 4)
        dm, fit, cov, _ = _fit(ds, cm)
        draws = run_bootstrap(cfg, dm, fit, cov, cm)
        gamma = adjust_level(draws, 0.05)
        q = contrast_quantiles(draws, gamma)
        sign = np.resize([1.0, -1.0], cm.r)
        for A_n, rejected in ((sign * q, False), (sign * np.nextafter(q, np.inf), True)):
            *_, reject = _calibrate(cfg, dm, fit, cov, cm, A_n, 0.05)
            assert reject.tolist() == [rejected] * cm.r
            assert ((local_p_values(draws, A_n) <= gamma) == reject).all()

    def test_quantile_tail_identity_distinct_values(self):
        # with distinct values: #{b: |A| >= q}/B == gamma + 1/B
        rng = np.random.default_rng(16)
        col = rng.standard_normal(30)
        for g in range(30):
            q = column_quantile(col, g / 30)
            assert np.count_nonzero(np.abs(col) >= q) == g + 1


class TestConfidenceIntervals:
    def make(self, seed, B=200):
        ds = random_dataset(seed, k=2, d=2, c=1, n_i=(9, 10))
        dm = build_design(ds)
        fit = fit_ols(dm, ds)
        cov = sandwich(dm, fit)
        cm = build_family("two_sample", 2, 2)
        draws = run_bootstrap(BootstrapConfig("wild", B, seed), dm, fit, cov, cm)
        return ds, dm, fit, cov, cm, draws

    def test_degenerate_quantile_gives_point_interval(self):
        ds, dm, fit, cov, cm, _ = self.make(17)
        est = cm.H @ fit.mu_vec
        ci = confidence_intervals(est, np.zeros(2), fit, cov, cm)
        assert np.allclose(ci[:, 0], est) and np.allclose(ci[:, 1], est)

    def test_zero_exclusion_duality(self):
        for seed in (18, 19, 20):
            ds, dm, fit, cov, cm, draws = self.make(seed)
            A_n = studentized_statistics(fit, cov, cm)
            gamma = adjust_level(draws, 0.05)
            q = contrast_quantiles(draws, gamma)
            ci = confidence_intervals(cm.H @ fit.mu_vec, q, fit, cov, cm)
            excludes = (ci[:, 0] > 0) | (ci[:, 1] < 0)
            assert np.array_equal(excludes, np.abs(A_n) > q)

    def test_width_scales_with_outcome_scale(self):
        ds, dm, fit, cov, cm, draws = self.make(21)
        gamma = adjust_level(draws, 0.05)
        q = contrast_quantiles(draws, gamma)
        ci = confidence_intervals(cm.H @ fit.mu_vec, q, fit, cov, cm)
        ds2 = Dataset(groups=ds.groups, n_i=ds.n_i, Y=2.0 * ds.Y, Z=ds.Z)
        dm2 = build_design(ds2)
        fit2 = fit_ols(dm2, ds2)
        cov2 = sandwich(dm2, fit2)
        draws2 = run_bootstrap(BootstrapConfig("wild", 200, 21), dm2, fit2, cov2, cm)
        assert np.array_equal(draws2.A_star, draws.A_star)  # studentized: scale-free
        ci2 = confidence_intervals(cm.H @ fit2.mu_vec, q, fit2, cov2, cm)
        width = ci[:, 1] - ci[:, 0]
        width2 = ci2[:, 1] - ci2[:, 0]
        assert np.allclose(width2, 2.0 * width, rtol=1e-12)


class TestRunMctp:
    def test_result_invariants_and_determinism(self):
        ds = random_dataset(22, k=2, d=3, c=2, n_i=(12, 12), mu=[[0, 0, 0], [1.5, 0, 0]])
        cm = build_family("two_sample", 2, 3)
        cfg = BootstrapConfig("wild", 400, 99)
        res1 = run_mctp(ds, cm, cfg, 0.05)
        res2 = run_mctp(ds, cm, cfg, 0.05)
        assert res1 == res2  # bitwise determinism via dataclass equality
        p = np.array([o.p_value for o in res1.contrasts])
        reject = np.array([o.reject for o in res1.contrasts])
        assert np.array_equal(p <= res1.gamma, reject)
        assert res1.global_p == p.min()
        assert res1.global_reject == reject.any()
        assert res1.global_reject == (res1.global_p <= res1.gamma)
        for o in res1.contrasts:
            excludes = o.ci_lower > 0 or o.ci_upper < 0
            assert excludes == o.reject

    def test_quantiles_are_read_once(self, monkeypatch):
        """The intervals take the quantiles that decide, not a second reading."""
        from bootmctp import mctp

        calls = []

        def counted(draws, gamma):
            calls.append(gamma)
            return contrast_quantiles(draws, gamma)

        monkeypatch.setattr(mctp, "contrast_quantiles", counted)
        ds = random_dataset(22, k=2, d=3, c=2, n_i=(12, 12))
        res = run_mctp(ds, build_family("two_sample", 2, 3), BootstrapConfig("wild", 200, 7),
                       0.05)
        assert calls == [res.gamma]

    def test_rejects_invalid_alpha(self):
        ds = random_dataset(23)
        with pytest.raises(ConfigError, match="alpha"):
            run_mctp(ds, build_family("dunnett", 3, 2), BootstrapConfig("wild", 50, 1), 1.2)

    def test_rejects_inadmissible_data(self):
        rng = np.random.default_rng(24)
        z = rng.uniform(-1, 1, size=(12, 1))
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((6, 1)), rng.standard_normal((6, 1))],
            [np.hstack([z[:6], z[:6]]), np.hstack([z[6:], z[6:]])],
        )
        from bootmctp import DataError

        with pytest.raises(DataError, match="rank deficiency"):
            run_mctp(ds, build_family("two_sample", 2, 1), BootstrapConfig("wild", 50, 1), 0.05)

    def test_contrast_dimension_mismatch(self):
        ds = random_dataset(25, k=3, d=2)
        with pytest.raises(EstimationError, match="expected k\\*d"):
            run_mctp(ds, build_family("two_sample", 2, 2), BootstrapConfig("wild", 50, 1), 0.05)

    def test_coarse_grid_warning(self):
        ds = random_dataset(26, k=2, d=1, c=0, n_i=(10, 10))
        res = run_mctp(ds, build_family("two_sample", 2, 1), BootstrapConfig("wild", 10, 1), 0.05)
        assert any("gamma-grid too coarse" in w for w in res.warnings)

    @pytest.mark.parametrize("B, coarse", [(99, True), (100, False)])
    def test_coarse_grid_edge(self, B, coarse):
        ds = random_dataset(26, k=2, d=1, c=0, n_i=(10, 10))
        res = run_mctp(ds, build_family("two_sample", 2, 1), BootstrapConfig("wild", B, 1), 0.05)
        assert any("gamma-grid too coarse" in w for w in res.warnings) == coarse

    def test_gamma_zero_warning(self):
        ds = random_dataset(27, k=2, d=1, c=0, n_i=(10, 10))
        res = run_mctp(ds, build_family("two_sample", 2, 1), BootstrapConfig("wild", 120, 1),
                       0.005)
        assert res.gamma == 0.0
        assert any("only a statistic above every bootstrap value is rejected" in w
                   for w in res.warnings)

    def test_gamma_zero_warning_with_a_rejection(self, hrv_path, hrv_schema):
        """At gamma=0 a statistic above every replicate is still rejected."""
        from bootmctp import load_csv

        ds = load_csv(hrv_path, hrv_schema)
        cm = build_family("two_sample", 2, 5, group_names=ds.groups,
                          outcome_names=ds.outcome_names)
        res = run_mctp(ds, cm, BootstrapConfig("wild", 20, 20250809), 0.05)
        assert res.gamma == 0.0
        assert [o.label for o in res.contrasts if o.reject] == [
            "hypnosis - control, SDNN", "hypnosis - control, VLF"]
        assert all(o.p_value == 0.0 for o in res.contrasts if o.reject)
        assert any("gamma=0" in w and "only a statistic above every bootstrap "
                   "value is rejected" in w for w in res.warnings)

    def test_table_contains_all_contrasts(self):
        ds = random_dataset(28, k=2, d=2, c=1, n_i=(8, 8))
        res = run_mctp(ds, build_family("two_sample", 2, 2),
                       BootstrapConfig("parametric", 150, 5), 0.05)
        table = format_result_table(res)
        for o in res.contrasts:
            assert o.label in table
        doc = res.to_dict()
        assert len(doc["contrasts"]) == 2
        assert doc["meta"]["gamma"] == res.gamma
        assert json.loads(res.to_json()) == doc

    def test_duplicate_contrast_row_duplicates_p_value(self):
        ds = random_dataset(29, k=2, d=2, c=1, n_i=(10, 10))
        base = build_family("two_sample", 2, 2)
        dup = ContrastMatrix(np.vstack([base.H, base.H[0]]), labels=[*base.labels, "dup"])
        cfg = BootstrapConfig("wild", 300, 8)
        res_base = run_mctp(ds, base, cfg, 0.05)
        res_dup = run_mctp(ds, dup, cfg, 0.05)
        assert res_dup.gamma == res_base.gamma
        assert res_dup.contrasts[2].p_value == res_dup.contrasts[0].p_value
        assert res_dup.contrasts[2].p_value == res_base.contrasts[0].p_value


class TestHrvParametric:
    def test_parametric_rejects_vlf(self, hrv_path, hrv_schema):
        from bootmctp import load_csv

        ds = load_csv(hrv_path, hrv_schema)
        cm = build_family("two_sample", 2, 5, group_names=ds.groups,
                          outcome_names=ds.outcome_names)
        res = run_mctp(ds, cm, BootstrapConfig("parametric", 2000, 1), 0.05)
        by_label = {o.label.split(", ")[1]: o for o in res.contrasts}
        assert by_label["VLF"].reject
        assert not by_label["RMSSD"].reject
        assert not by_label["HF"].reject
        assert not by_label["LF"].reject
