"""The top-level API is the one the README documents; nothing else moved."""

import ast
import importlib
import re
from pathlib import Path

import bootmctp
from bootmctp import mctp

ROOT = Path(__file__).resolve().parents[1]

# Pipeline stages and internals that live only in their modules.
MODULE_NAMES = {
    "bootstrap": ("save_draws_csv",),
    "covariance": ("CovarianceEstimate", "groupwise_cov", "hc4_weights",
                   "psd_sqrt", "sandwich"),
    "dataset": ("ValidationReport",),
    "design": ("DesignMatrices", "FitResult", "build_design", "fit_ols"),
    "mctp": ("ContrastOutcome", "adjust_level", "confidence_intervals",
             "contrast_quantiles", "local_p_values", "test_statistics"),
    "simgen": ("gen_covariates", "gen_dataset", "scenario_sigma",
               "standardized_errors"),
}


def readme_api_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def test_all_is_the_readme_api():
    assert sorted(bootmctp.__all__) == sorted(readme_api_names())
    for name in bootmctp.__all__:
        assert hasattr(bootmctp, name), name


def test_stage_names_resolve_from_their_modules():
    names = [(m, n) for m, ns in MODULE_NAMES.items() for n in ns]
    assert len(names) == 21
    for module_name, name in names:
        module = importlib.import_module(f"bootmctp.{module_name}")
        assert hasattr(module, name), f"bootmctp.{module_name}.{name}"
        assert name not in vars(bootmctp), name


def test_benchmark_traced_targets_resolve():
    """Every name perfbench/run.py traces exists, read without running it.

    The harness also checks each gamma by tracing ``mctp.adjust_level``,
    which ``_calibrate`` must therefore call through the module global.
    """
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TRACED"]
    assert traced
    for target in traced:
        module_name, name = target.rsplit(".", 1)
        module = importlib.import_module(f"bootmctp.{module_name}")
        assert callable(getattr(module, name, None)), target
    assert {"run_bootstrap", "adjust_level"} <= set(mctp._calibrate.__code__.co_names)
