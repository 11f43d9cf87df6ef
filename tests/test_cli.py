import json
import os

import numpy as np
import pytest

from bootmctp.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def analyze_args(hrv_path):
    return [
        "analyze",
        "--input", hrv_path,
        "--group-col", "group",
        "--outcomes", "SDNN,RMSSD,HF,VLF,LF",
        "--covariates", "HGSHA,PSS",
        "--contrast", "two-sample",
        "--bootstrap", "wild",
    ]


class TestAnalyze:
    def test_success_and_report_files(self, capsys, tmp_path, analyze_args):
        out_dir = str(tmp_path / "out")
        code, out, err = run_cli(
            capsys, analyze_args + ["--B", "300", "--seed", "1", "--out", out_dir]
        )
        assert code == 0
        assert "SDNN" in out and "global hypothesis" in out
        doc = json.loads(open(os.path.join(out_dir, "result.json")).read())
        assert len(doc["contrasts"]) == 5
        assert doc["meta"]["B"] == 300
        table = open(os.path.join(out_dir, "result.txt")).read()
        assert "decision" in table

    def test_table_numbers_appear_in_json_with_more_precision(
        self, capsys, tmp_path, analyze_args
    ):
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(
            capsys, analyze_args + ["--B", "200", "--seed", "2", "--out", out_dir]
        )
        assert code == 0
        doc = json.loads(open(os.path.join(out_dir, "result.json")).read())
        for row, entry in zip(
            [ln for ln in out.splitlines() if " - " in ln], doc["contrasts"]
        ):
            fields = row.split()
            # trailing fields: estimate, statistic, p, gamma, ci_lo, ci_hi, decision
            assert float(entry["estimate"]) == pytest.approx(
                float(fields[-7]), abs=5e-5
            )
            assert float(entry["p_value"]) == pytest.approx(
                float(fields[-5]), abs=5e-5
            )

    def test_dump_draws(self, capsys, tmp_path, analyze_args):
        out_dir = str(tmp_path / "out")
        code, _, _ = run_cli(
            capsys,
            analyze_args
            + ["--B", "50", "--seed", "3", "--out", out_dir, "--dump-draws"],
        )
        assert code == 0
        draws = np.loadtxt(
            os.path.join(out_dir, "draws.csv"), delimiter=",", skiprows=1
        )
        assert draws.shape == (50, 5)

    def test_missing_input_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "--input", "/nonexistent/file.csv",
                "--group-col", "g", "--outcomes", "y",
            ],
        )
        assert code == 1
        assert "not found" in err

    def test_missing_required_flag_exits_1(self, capsys, hrv_path):
        code, _, err = run_cli(capsys, ["analyze", "--input", hrv_path])
        assert code == 1
        assert "group-col" in err

    def test_coarse_grid_warning_in_report(self, capsys, tmp_path, analyze_args):
        out_dir = str(tmp_path / "out")
        code, _, _ = run_cli(
            capsys, analyze_args + ["--B", "10", "--seed", "4", "--out", out_dir]
        )
        assert code == 0
        doc = json.loads(open(os.path.join(out_dir, "result.json")).read())
        assert any("gamma-grid too coarse" in w for w in doc["meta"]["warnings"])

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "collinear.csv"
        rows = ["group,y,z1,z2"]
        rng = np.random.default_rng(0)
        for i in range(10):
            g = "a" if i < 5 else "b"
            z = rng.uniform(-1, 1)
            rows.append(f"{g},{rng.standard_normal():.4f},{z:.4f},{z:.4f}")
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "--input", str(path), "--group-col", "group",
                "--outcomes", "y", "--covariates", "z1,z2",
            ],
        )
        assert code == 2
        assert "rank deficiency" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path, hrv_path):
        cfg = {
            "input": hrv_path,
            "group-col": "group",
            "outcomes": ["SDNN", "RMSSD", "HF", "VLF", "LF"],
            "covariates": ["HGSHA", "PSS"],
            "bootstrap": "parametric",
            "B": 100,
            "seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = str(tmp_path / "out")
        code, _, _ = run_cli(
            capsys,
            ["analyze", "--config", str(cfg_path), "--B", "120", "--out", out_dir],
        )
        assert code == 0
        doc = json.loads(open(os.path.join(out_dir, "result.json")).read())
        assert doc["meta"]["B"] == 120  # flag wins
        assert doc["meta"]["bootstrap"] == "parametric"

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inputt": "x.csv"}))
        code, _, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert code == 1
        assert "unknown config keys" in err


class TestSimulate:
    def test_smoke_grid(self, capsys, tmp_path):
        cfg = {
            "runs": 200,
            "B": 200,
            "alpha": 0.05,
            "seed": 6,
            "workers": 2,
            "scenarios": [
                {"k": 2, "d": 2, "contrast_family": "two_sample"},
            ],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(
            capsys, ["simulate", "--config", str(cfg_path), "--out", out_dir]
        )
        assert code == 0
        lines = open(os.path.join(out_dir, "study.csv")).read().strip().splitlines()
        assert len(lines) == 3  # header + wild + parametric
        assert "wild" in lines[1] and "parametric" in lines[2]

    def test_bad_scenario_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"scenarios": [{"d": 2}]}))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1

    def test_invalid_scenario_value_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(
            {"scenarios": [{"k": 2, "d": 2, "distribution": "foo"}]}
        ))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert err.splitlines() == ["error: unknown distribution 'foo'"]

    def test_missing_config_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, ["simulate", "--config", "/nope.json"])
        assert code == 1


class TestContrastsCommand:
    def test_dunnett_prints_labeled_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, ["contrasts", "--contrast", "dunnett", "--k", "3", "--d", "2"]
        )
        assert code == 0
        rows = [ln for ln in out.strip().splitlines()]
        assert len(rows) == 4

    def test_two_sample_uses_outcome_names(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "contrasts", "--contrast", "two-sample", "--k", "2", "--d", "5",
                "--outcomes", "SDNN,RMSSD,HF,VLF,LF",
            ],
        )
        assert code == 0
        assert "SDNN" in out and "LF" in out

    def test_custom_file_bad_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("c1,c2,c3,c4\n1,-1,0,0\n0.5,0.5,0,0\n")
        code, _, err = run_cli(
            capsys,
            ["contrasts", "--contrast", f"custom:{path}", "--k", "2", "--d", "2"],
        )
        assert code == 2
        assert "row 2" in err

    def test_invalid_family_k_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["contrasts", "--contrast", "two-sample", "--k", "3", "--d", "2"]
        )
        assert code == 2
        assert "k=2" in err
