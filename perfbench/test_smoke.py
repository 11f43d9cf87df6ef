"""Smoke test of the benchmark at tiny sizes (B=50, a few runs).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def package_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name.startswith("bootmctp") and module is not None}


def assert_unchanged(before, after):
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys(), name
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert not changed, f"{name}: {changed}"


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_and_checked(workload, trace, capsys):
    run.import_package()
    before = package_namespaces()
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke"])
    assert_unchanged(before, package_namespaces())
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.startswith(f"metric {name} = ") for line in out), name
    if trace:
        assert any(line.startswith("info tracing overhead = ") for line in out)


def test_changed_digest_is_a_failure(monkeypatch, capsys):
    key = ("hrv_analyze", True)
    changed = dict(run.REFERENCE[key], **{"sha256(A_star wild)": "0" * 64})
    monkeypatch.setitem(run.REFERENCE, key, changed)
    code = run.main(["--workload", "hrv_analyze", "--seed", "7", "--seconds", "0.2",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is False and result["failed"] == 1


def test_tracer_restores_namespaces():
    bm, _ = run.import_package()
    before = package_namespaces()
    with pytest.raises(ZeroDivisionError):
        with run.Tracer(run.TRACED):
            assert bm.mctp.run_bootstrap is not before["bootmctp.mctp"]["run_bootstrap"]
            1 / 0
    assert_unchanged(before, package_namespaces())


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hrv_analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
