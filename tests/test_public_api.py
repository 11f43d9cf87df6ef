"""The top-level API is the one the README documents; nothing else moved."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import bootmctp
from bootmctp import mctp

ROOT = Path(__file__).resolve().parents[1]
HRV = str(ROOT / "data" / "hrv_synthetic.csv")

# Pipeline stages and internals that live only in their modules.
MODULE_NAMES = {
    "bootstrap": ("run_bootstrap", "save_draws_csv"),
    "covariance": ("CovarianceEstimate", "groupwise_cov", "hc4_weights",
                   "psd_sqrt", "sandwich"),
    "dataset": ("ValidationReport",),
    "design": ("DesignMatrices", "FitResult", "build_design", "fit_ols"),
    "mctp": ("ContrastOutcome", "adjust_level", "confidence_intervals",
             "contrast_quantiles", "local_p_values", "test_statistics"),
    "simgen": ("gen_covariates", "gen_dataset", "scenario_sigma",
               "standardized_errors"),
}


def last_line_in_fresh_interpreter(code: str, *args: str) -> str:
    """Run `code` with `args` in a new interpreter importing src/; its last stdout line.

    The import tests need one, because the tests themselves load scipy's packages.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def readme_api_names() -> set[str]:
    """The backticked names in the bulleted list that opens the README's Library API."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.search(r"^- .*?(?=\n\n)", section, re.M | re.S).group()
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def test_all_is_the_readme_api():
    assert sorted(bootmctp.__all__) == sorted(readme_api_names())
    for name in bootmctp.__all__:
        assert hasattr(bootmctp, name), name


def public_or_plain(tp) -> bool:
    """`tp` and its arguments are builtins, numpy or typing constructs, or __all__ names."""
    if typing.get_origin(tp) is not None:
        return all(public_or_plain(arg) for arg in typing.get_args(tp))
    if tp is Ellipsis:
        return True
    module = getattr(tp, "__module__", "")
    if module in ("builtins", "typing") or module.split(".")[0] == "numpy":
        return True
    name = getattr(tp, "__name__", "")
    return name in bootmctp.__all__ and getattr(bootmctp, name) is tp


def test_public_functions_take_only_public_types():
    """Every function in __all__ can be called with values built from __all__ names.

    Only parameters are checked: `validate` returns the module-level
    ValidationReport on purpose.
    """
    functions = [name for name in bootmctp.__all__
                 if inspect.isfunction(getattr(bootmctp, name))]
    assert "run_mctp" in functions
    for name in functions:
        hints = typing.get_type_hints(getattr(bootmctp, name))
        hints.pop("return", None)
        for param, tp in hints.items():
            assert public_or_plain(tp), f"{name}({param}: {tp})"


def test_stage_names_resolve_from_their_modules():
    names = [(m, n) for m, ns in MODULE_NAMES.items() for n in ns]
    assert len(names) == 22
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


def test_package_never_imports_scipy_stats():
    """Importing, a study run and a CLI analysis leave scipy.stats unloaded.

    Loading scipy.stats roughly doubles the package's start-up time and adds
    nearly 40 MB to its memory.
    """
    code = """
import sys
import bootmctp
from bootmctp import cli
bootmctp.run_study([bootmctp.SimScenario(k=2, d=2, contrast_family="two_sample")],
                   runs=1, B=20, alpha=0.05, seed=1)
assert cli.main(["analyze", "--input", sys.argv[1], "--group-col", "group",
                 "--outcomes", "SDNN,RMSSD", "--B", "20"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""
    assert last_line_in_fresh_interpreter(code, HRV) == "[]"


def test_analysis_never_imports_scipy_special():
    """Importing the package and one run_mctp load no scipy.special module.

    Only a study's binomial intervals need its betaincinv kernel, which
    simgen loads on first use.
    """
    code = """
import sys
import numpy as np
import bootmctp
rng = np.random.default_rng(1)
ds = bootmctp.Dataset.from_group_blocks(
    ["a", "b"], [rng.standard_normal((8, 2)), rng.standard_normal((9, 2))])
bootmctp.run_mctp(ds, bootmctp.build_family("two_sample", 2, 2),
                  bootmctp.BootstrapConfig("wild", 50, 1), 0.05)
print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
"""
    assert last_line_in_fresh_interpreter(code) == "[]"


def test_package_never_imports_scipy_linalg():
    """Importing, one run_mctp and a CLI analysis leave scipy.linalg unloaded.

    design.py loads only scipy.linalg's LAPACK extension module.  Importing
    scipy.linalg itself would load scipy's array-API layer, which clones
    numpy and doubles the package's start-up time and memory.
    """
    code = """
import sys
import numpy as np
import bootmctp
from bootmctp import cli
rng = np.random.default_rng(1)
ds = bootmctp.Dataset.from_group_blocks(
    ["a", "b"], [rng.standard_normal((8, 2)), rng.standard_normal((9, 2))],
    [rng.standard_normal((8, 1)), rng.standard_normal((9, 1))])
bootmctp.run_mctp(ds, bootmctp.build_family("two_sample", 2, 2),
                  bootmctp.BootstrapConfig("wild", 50, 1), 0.05)
assert cli.main(["analyze", "--input", sys.argv[1], "--group-col", "group",
                 "--outcomes", "SDNN,RMSSD", "--covariates", "HGSHA", "--B", "20"]) == 0
print(sorted(m for m in sys.modules
             if m in ("scipy", "scipy.linalg", "scipy._lib._array_api")))
"""
    assert last_line_in_fresh_interpreter(code, HRV) == "[]"


def test_study_never_imports_scipy_special_package(tmp_path):
    """A run_study and a CLI study leave scipy.special and the array-API layer unloaded.

    simgen loads only betaincinv's kernel, from scipy.special's extension
    module _ufuncs_cxx.  Importing the scipy.special package would load
    scipy's array-API layer, about 0.24 s and 25 MB in every study's parent.
    """
    config = tmp_path / "grid.json"
    config.write_text('{"runs": 2, "B": 20, "scenarios": [{"k": 3, "d": 2}]}',
                      encoding="utf-8")
    code = """
import sys
import bootmctp
from bootmctp import cli
bootmctp.run_study([bootmctp.SimScenario(k=2, d=2, contrast_family="two_sample")],
                   runs=1, B=20, alpha=0.05, seed=1)
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "scipy.special._ufuncs_cxx" in sys.modules
print(sorted(m for m in sys.modules if m in ("scipy.special", "scipy._lib._array_api")))
"""
    assert last_line_in_fresh_interpreter(code, str(config), str(tmp_path / "out")) == "[]"
