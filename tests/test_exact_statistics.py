"""The observed statistics A_n against a 40-digit decimal oracle.

The bitwise tests and the benchmark digests show that bits did not move;
these tests check the value of the statistic itself.  The error of a
statistic is measured as |A - exact| / max(1, |exact|): a decision compares
|A_n| with a bootstrap quantile of order one, so a statistic near zero
needs only absolute accuracy.  The outcome-scale tests compare a run with
the same run at another scale, which leaves A_n unchanged.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bootmctp import Dataset, EstimationError, build_family
from bootmctp.mctp import _fit
from bootmctp.simgen import default_nu, gen_covariates

from conftest import random_dataset
from oracles import centred_statistics, exact_statistics

# Bound at covariates near zero, and the bound a fit from centred
# covariates should meet at any covariate location.
TOL = 1e-12
OFFSET_TOL = 1e-8


def relative_error(A, exact) -> float:
    return float(np.max(np.abs(A - exact) / np.maximum(1.0, np.abs(exact))))


def statistic_error(ds, cm) -> float:
    return relative_error(_fit(ds, cm)[3], exact_statistics(ds, cm.H))


@given(st.data())
def test_observed_statistics_match_the_exact_oracle(data):
    k = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, 2))
    n_i = tuple(data.draw(st.lists(st.integers(2, 10), min_size=k, max_size=k)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    family = data.draw(st.sampled_from(["tukey", "dunnett", "grand_mean"]))
    ds = random_dataset(seed, k=k, d=d, c=c, n_i=n_i)
    assert statistic_error(ds, build_family(family, k, d)) <= TOL


def offset_dataset(seed: int, offset: float) -> Dataset:
    """k=3, d=2, n_i=10: the study covariates moved by `offset`, and the
    study model's response Z nu + N(0, I) on the moved covariates."""
    rng = np.random.default_rng(seed)
    Z = [gen_covariates(10, rng) + offset for _ in range(3)]
    Y = [z @ default_nu(2) + rng.standard_normal((10, 2)) for z in Z]
    return Dataset.from_group_blocks(["G1", "G2", "G3"], Y, Z)


RAW_GRAM = pytest.mark.xfail(
    strict=True,
    reason="design.build_design inverts the raw Gram matrix of "
    "[group indicators | Z], which cancels badly when a covariate sits far "
    "from zero; a fit from within-group centred covariates would not",
)


@pytest.mark.parametrize("offset, bound", [
    (0.0, TOL),
    pytest.param(1e4, OFFSET_TOL, marks=RAW_GRAM),
    pytest.param(1e6, OFFSET_TOL, marks=RAW_GRAM),
])
def test_statistics_at_a_covariate_offset(offset, bound):
    cm = build_family("dunnett", 3, 2)
    worst = max(statistic_error(offset_dataset(seed, offset), cm) for seed in range(8))
    assert worst <= bound


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_centred_oracle_meets_the_bound_at_every_offset(offset):
    """The fit from within-group centred covariates stays within TOL of the
    exact statistics where the package's raw Gram fit does not, and at
    offset 0 within TOL of the package's A_n."""
    cm = build_family("dunnett", 3, 2)
    for seed in range(8):
        ds = offset_dataset(seed, offset)
        A = centred_statistics(ds.n_i, ds.Z, ds.Y, cm.H)
        assert relative_error(A, exact_statistics(ds, cm.H)) <= TOL, seed
        if offset == 0.0:
            assert relative_error(A, _fit(ds, cm)[3]) <= TOL, seed


def scaled_outcomes(scale: float) -> Dataset:
    """k=3, n_i=15, d=2, c=1, with every outcome multiplied by `scale`."""
    ds = random_dataset(0, k=3, d=2, c=1, n_i=(15, 15, 15))
    return Dataset(ds.groups, ds.n_i, ds.Y * scale, ds.Z)


def test_overflowing_outcomes_raise_one_error_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="overflows: its studentizer"):
            _fit(scaled_outcomes(1e160), build_family("dunnett", 3, 2))


@pytest.mark.xfail(strict=True, raises=EstimationError,
                   reason="the squared residuals underflow to zero, so every h'Dh "
                   "reads zero, though A_n does not depend on the outcome scale")
def test_statistics_at_a_tiny_outcome_scale():
    cm = build_family("dunnett", 3, 2)
    A = _fit(scaled_outcomes(1.0), cm)[3]
    tiny = _fit(scaled_outcomes(1e-300), cm)[3]
    assert np.max(np.abs(tiny - A) / np.abs(A)) <= TOL
