"""Metamorphic properties of the studentized contrast statistics.

The statistic sqrt(n) h'mu / sqrt(h'Dh) is unchanged by transformations of
the data that the model absorbs: adding a covariate effect Z b to Y,
rescaling an outcome component, shifting Y by a constant and rescaling the
covariates.  It is not unchanged by moving a covariate's location, because
the studentizer D keeps only the diagonal of the sandwich block; the last
test documents that.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bootmctp import Dataset, build_family
from bootmctp.covariance import hc4_weights
from bootmctp.mctp import _fit

from conftest import random_dataset
from oracles import dense_sandwich_block

# Largest change of any statistic, relative to the largest statistic.
TOL = 1e-12


@st.composite
def designs(draw, min_c=0):
    """A random well-conditioned dataset and a contrast family for it."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(min_c, 2))
    n_i = tuple(draw(st.lists(st.integers(c + 3, 12), min_size=k, max_size=k)))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["tukey", "dunnett", "grand_mean"]))
    return random_dataset(seed, k=k, d=d, c=c, n_i=n_i), build_family(family, k, d)


def with_data(ds, Y=None, Z=None) -> Dataset:
    return Dataset(groups=ds.groups, n_i=ds.n_i, Y=ds.Y if Y is None else Y,
                   Z=ds.Z if Z is None else Z, row_group=ds.row_group)


def statistics(ds, cm) -> np.ndarray:
    return _fit(ds, cm)[3]


def assert_same_statistics(ds, ds2, cm):
    A, A2 = statistics(ds, cm), statistics(ds2, cm)
    assert np.abs(A2 - A).max() <= TOL * np.abs(A).max()


def floats(lo, hi, size):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size)


@given(st.data())
def test_adding_a_covariate_effect(data):
    ds, cm = data.draw(designs(min_c=1))
    b = np.array(data.draw(floats(-10.0, 10.0, ds.c * ds.d))).reshape(ds.c, ds.d)
    assert_same_statistics(ds, with_data(ds, Y=ds.Y + ds.Z @ b), cm)


@given(st.data())
def test_rescaling_each_outcome_component(data):
    ds, cm = data.draw(designs())
    scale = 10.0 ** np.array(data.draw(floats(-6.0, 6.0, ds.d)))
    assert_same_statistics(ds, with_data(ds, Y=ds.Y * scale), cm)


@given(st.data())
def test_shifting_the_response(data):
    ds, cm = data.draw(designs())
    shift = np.array(data.draw(floats(-10.0, 10.0, ds.d)))
    assert_same_statistics(ds, with_data(ds, Y=ds.Y + shift), cm)


@given(st.data())
def test_rescaling_the_covariates(data):
    ds, cm = data.draw(designs(min_c=1))
    scale = 10.0 ** np.array(data.draw(floats(-8.0, 8.0, ds.c)))
    assert_same_statistics(ds, with_data(ds, Z=ds.Z * scale), cm)


def test_covariate_location_moves_the_diagonal_studentizer():
    """Shifting a covariate keeps h'(Lambda11)h but moves h'Dh and A_n.

    With contrasts that sum to zero over the groups, a covariate shift
    changes no contrast estimate and no contrast variance h'(Lambda11)h.
    D = diag(Lambda11) drops the covariances of the adjusted means, which
    depend on where the covariates sit, so h'Dh and the statistics move.
    """
    ds = random_dataset(3, k=3, d=2, c=2, n_i=(10, 12, 11))
    cm = build_family("tukey", ds.k, ds.d)
    Z = ds.Z.copy()
    Z[:, 0] += 1.0
    shifted = with_data(ds, Z=Z)
    hLh, hDh, A = [], [], []
    for data in (ds, shifted):
        dm, fit, cov, A_n = _fit(data, cm)
        lam = dense_sandwich_block(data.n_i, data.Z, fit.residuals,
                                   hc4_weights(dm.leverages, dm.n))
        hLh.append(np.einsum("rc,cq,rq->r", cm.H, lam, cm.H))
        hDh.append(cm.H**2 @ cov.D)
        A.append(A_n)
    assert np.allclose(hLh[1], hLh[0], rtol=1e-9, atol=0)
    assert np.abs(hDh[1] / hDh[0] - 1.0).max() > 0.01
    assert np.abs(A[1] - A[0]).max() > 0.01
