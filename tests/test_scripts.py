"""The dataset generator in ``scripts/`` analyses data with the package core."""

import importlib.util
import os

import numpy as np

from bootmctp import BootstrapConfig, run_mctp

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "make_hrv_dataset.py")


def load_script():
    spec = importlib.util.spec_from_file_location("make_hrv_dataset", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hrv_generator_analysis_equals_run_mctp(hrv_path):
    script = load_script()
    ds, fit, cov, cm, A_n, draws = script.analyze(hrv_path, 50, 1)
    result = run_mctp(ds, cm, BootstrapConfig("wild", 50, 1), 0.05, keep_draws=True)
    assert np.array_equal(A_n, [o.statistic for o in result.contrasts])
    assert np.array_equal(draws.A_star, result.draws.A_star)
