import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))  # make oracles importable

from bootmctp import BootstrapDraws, CsvSchema, Dataset

try:
    from hypothesis import settings
except ImportError:  # the property tests need the [test] extras
    pass
else:
    # Derandomized and bounded, so each run checks the same examples.
    settings.register_profile("bootmctp", derandomize=True, deadline=None,
                              max_examples=50, database=None)
    settings.load_profile("bootmctp")

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

HRV_OUTCOMES = ("SDNN", "RMSSD", "HF", "VLF", "LF")
HRV_COVARIATES = ("HGSHA", "PSS")


@pytest.fixture(scope="session")
def hrv_path() -> str:
    return os.path.abspath(os.path.join(DATA_DIR, "hrv_synthetic.csv"))


@pytest.fixture(scope="session")
def hrv_schema() -> CsvSchema:
    return CsvSchema(group="group", outcomes=HRV_OUTCOMES, covariates=HRV_COVARIATES)


def random_dataset(seed, k=3, d=2, c=2, n_i=(8, 8, 8), mu=None) -> Dataset:
    """Well-conditioned random dataset for oracle comparisons."""
    rng = np.random.default_rng(seed)
    n_i = tuple(n_i)
    mu = np.zeros((k, d)) if mu is None else np.asarray(mu, dtype=float)
    nu = rng.standard_normal((c, d))
    Y_blocks, Z_blocks = [], []
    for i in range(k):
        Z_i = rng.uniform(-2.0, 2.0, size=(n_i[i], c))
        eps = rng.standard_normal((n_i[i], d))
        Y_blocks.append(mu[i][None, :] + (Z_i @ nu if c else 0.0) + eps)
        Z_blocks.append(Z_i)
    return Dataset.from_group_blocks(
        groups=[f"g{i + 1}" for i in range(k)], Y_blocks=Y_blocks, Z_blocks=Z_blocks
    )


def draws_of(A_star) -> BootstrapDraws:
    """A B x r array of bootstrap statistics as BootstrapDraws."""
    return BootstrapDraws(A_star=A_star, kind="wild", seed=0)
