"""Bootstrap rows against a 40-digit decimal oracle.

The bitwise tests and the benchmark digests show that the draws did not
move; these tests check the value of a replicate's statistics: rows 0, B/2
and B-1 of ``run_bootstrap`` against ``oracles.exact_replicate``, which
draws each response from the documented replicate stream and refits it in
decimal.  The error is |A* - exact| / max(1, |exact|), as for the observed
statistics in ``test_exact_statistics.py``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bootmctp import BootstrapConfig, build_family, load_csv
from bootmctp.bootstrap import run_bootstrap
from bootmctp.mctp import _fit

from conftest import random_dataset
from oracles import exact_replicate

TOL = 1e-12  # covariates near zero


def replicate_error(ds, cm, cfg) -> float:
    """Worst error of rows 0, B/2 and B-1 of the bootstrap of `ds`."""
    dm, fit, cov, _ = _fit(ds, cm)
    draws = run_bootstrap(cfg, dm, fit, cov, cm)
    assert draws.invalid_redraws == 0  # so each row is its first attempt
    worst = 0.0
    for b in sorted({0, cfg.B // 2, cfg.B - 1}):
        exact = exact_replicate(ds, cm.H, cfg.kind, cfg.seed, b)
        err = np.abs(draws.A_star[b] - exact) / np.maximum(1.0, np.abs(exact))
        worst = max(worst, float(err.max()))
    return worst


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
