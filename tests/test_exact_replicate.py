"""Bootstrap rows, and the decisions they give, against a 40-digit decimal oracle.

The bitwise tests and the benchmark digests show that the draws did not
move; these tests check the value of a replicate's statistics: rows 0, B/2
and B-1 of ``run_bootstrap`` against ``oracles.exact_replicates``, which
draws each response from the documented replicate stream and refits it in
decimal.  The error is |A* - exact| / max(1, |exact|), as for the observed
statistics in ``test_exact_statistics.py``.  From all B exact rows and the
exact A_n, the grid scan gives the exact gamma, quantiles and decisions,
which ``run_mctp`` must give too.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bootmctp import BootstrapConfig, build_family, load_csv, run_mctp
from bootmctp.bootstrap import run_bootstrap
from bootmctp.mctp import _fit

from conftest import random_dataset
from oracles import exact_replicates, exact_statistics, scan_adjust_level

TOL = 1e-12  # covariates near zero


def replicate_error(ds, cm, cfg) -> float:
    """Worst error of rows 0, B/2 and B-1 of the bootstrap of `ds`."""
    dm, fit, cov, _ = _fit(ds, cm)
    draws = run_bootstrap(cfg, dm, fit, cov, cm)
    assert draws.invalid_redraws == 0  # so each row is its first attempt
    rows = sorted({0, cfg.B // 2, cfg.B - 1})
    exact = exact_replicates(ds, cm.H, cfg.kind, cfg.seed, rows)
    return float(np.max(np.abs(draws.A_star[rows] - exact) / np.maximum(1.0, np.abs(exact))))


def test_hrv_rows_match_the_exact_oracle(hrv_path, hrv_schema):
    ds = load_csv(hrv_path, hrv_schema)
    for kind in ("wild", "parametric"):
        cfg = BootstrapConfig(kind, 2000, 20250809)
        assert replicate_error(ds, build_family("two_sample", 2, ds.d), cfg) <= TOL, kind


@given(st.data())
def test_rows_match_the_exact_oracle(data):
    """The designs of test_exact_statistics, with groups of 3 to 10 subjects.

    A group of two without covariates has residuals e and -e, so the wild
    scheme zeroes them whenever its two signs differ: such a replicate's
    h'Dh is zero in exact arithmetic and rounding noise in float64.
    """
    k = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, 2))
    n_i = tuple(data.draw(st.lists(st.integers(3, 10), min_size=k, max_size=k)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    family = data.draw(st.sampled_from(["tukey", "dunnett", "grand_mean"]))
    B = data.draw(st.integers(1, 64))
    ds = random_dataset(seed, k=k, d=d, c=c, n_i=n_i)
    cm = build_family(family, k, d)
    kinds = ["wild"] + (["parametric"] if min(n_i) > c + 1 else [])
    for kind in kinds:
        cfg = BootstrapConfig(kind, B, data.draw(st.integers(0, 2**64 - 1)))
        assert replicate_error(ds, cm, cfg) <= TOL, kind


# (k, d, c, n_i, family); the last group's first outcome is shifted by 2,
# so that some contrasts are rejected and some retained.
DESIGNS = [
    (2, 1, 0, (5, 5), "two_sample"),
    (3, 2, 1, (6, 8, 7), "tukey"),
    (4, 3, 2, (5, 6, 10, 7), "dunnett"),
    (3, 1, 2, (8, 9, 10), "grand_mean"),
    (2, 3, 1, (7, 9), "two_sample"),
    (4, 2, 0, (5, 5, 6, 6), "tukey"),
]
B, ALPHA = 200, 0.05
MAX_SKIPPED = 0.25  # share of the (design, scheme) cases that may sit near a tie


def near_ties(a, b) -> bool:
    """Whether some a_i and b_i differ by at most TOL * max(1, |b_i|) without being
    equal: float64 rounding may then order them either way."""
    gap = np.abs(a - b)
    return bool(np.any((gap > 0) & (gap <= TOL * np.maximum(1.0, np.abs(b)))))


def test_gamma_quantiles_and_decisions_match_the_exact_oracle():
    """Gamma is the grid scan's over the exact B x r matrix, each quantile its
    column's order statistic at row B-1-g within TOL, and each decision
    |exact A_n| > exact quantile.

    A case is skipped only where two exact |A*| of one column, or an exact |A_n|
    and its quantile, lie within TOL of each other without being equal.  Exact
    ties are decided: the (5, 5) design has 2**10 wild sign vectors, so some of
    its 200 draws repeat or negate one another.
    """
    cases, skipped, ties = 0, 0, 0
    for seed, (k, d, c, n_i, family) in enumerate(DESIGNS):
        mu = np.zeros((k, d))
        mu[-1, 0] = 2.0
        ds = random_dataset(seed, k=k, d=d, c=c, n_i=n_i, mu=mu)
        cm = build_family(family, k, d)
        A_n = exact_statistics(ds, cm.H)
        for kind in ("wild", "parametric"):
            res = run_mctp(ds, cm, BootstrapConfig(kind, B, seed), ALPHA, keep_draws=True)
            assert res.draws.invalid_redraws == 0  # so row b is its first attempt
            exact = exact_replicates(ds, cm.H, kind, seed, range(B))
            assert np.all(np.abs(res.draws.A_star - exact)
                          <= TOL * np.maximum(1.0, np.abs(exact))), (seed, kind)
            cases += 1
            S = np.sort(np.abs(exact), axis=0)
            g = round(scan_adjust_level(exact, ALPHA) * B)
            q = S[B - 1 - g]
            if near_ties(S[1:], S[:-1]) or near_ties(np.abs(A_n), q):
                skipped += 1
                continue
            ties += int(np.count_nonzero(S[1:] == S[:-1]))
            assert res.gamma == g / B, (seed, kind)
            got = np.array([o.quantile for o in res.contrasts])
            assert np.all(np.abs(got - q) <= TOL * np.maximum(1.0, q)), (seed, kind)
            assert [o.reject for o in res.contrasts] == (np.abs(A_n) > q).tolist(), (seed, kind)
    assert skipped <= MAX_SKIPPED * cases, f"{skipped} of {cases} cases skipped"
    assert ties > 0
