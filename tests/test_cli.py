import csv
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bootmctp import cli
from bootmctp.cli import ANALYZE_SETTINGS, SIMULATE_SETTINGS, main

README = Path(__file__).resolve().parents[1] / "README.md"


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
        doc = json.loads(Path(out_dir, "result.json").read_text())
        assert len(doc["contrasts"]) == 5
        assert doc["meta"]["B"] == 300
        table = Path(out_dir, "result.txt").read_text()
        assert "decision" in table

    def test_table_numbers_appear_in_json_with_more_precision(
        self, capsys, tmp_path, analyze_args
    ):
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(
            capsys, analyze_args + ["--B", "200", "--seed", "2", "--out", out_dir]
        )
        assert code == 0
        doc = json.loads(Path(out_dir, "result.json").read_text())
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
        doc = json.loads(Path(out_dir, "result.json").read_text())
        with open(os.path.join(out_dir, "draws.csv"), newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header == [c["label"] for c in doc["contrasts"]]

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_dump_draws_without_out_exits_1_before_reading_data(
        self, capsys, monkeypatch, tmp_path, analyze_args, form
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("the data file was read")

        monkeypatch.setattr(cli, "load_csv", no_read)
        extra = ["--dump-draws"]
        if form == "config":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"dump-draws": True}))
            extra = ["--config", str(cfg_path)]
        code, out, err = run_cli(capsys, analyze_args + ["--B", "200"] + extra)
        assert code == 1
        assert out == ""
        assert err == "error: --dump-draws needs --out\n"

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
        doc = json.loads(Path(out_dir, "result.json").read_text())
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
        assert len(err.splitlines()) == 1
        assert err.startswith("error: dataset not admissible: rank deficiency: ")

    def test_validation_warning_printed_once_in_the_table(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("group,y\na,1.5\na,1.5\na,1.5\nb,0.2\nb,0.9\nb,0.4\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, [
            "analyze", "--input", str(data), "--group-col", "group",
            "--outcomes", "y", "--B", "200", "--out", str(out_dir),
        ])
        assert code == 0
        assert err == ""
        warning = "zero within-group variance in component 1 ('y') of group 1 ('a')"
        assert out.count(warning) == 1
        assert f"warning: {warning}" in out.splitlines()
        assert (out_dir / "result.txt").read_text() == out
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["meta"]["warnings"].count(warning) == 1

    def test_non_finite_custom_contrast_exits_2_before_any_report(self, capsys,
                                                                  tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("group,y\n" + "".join(f"{g},{v}\n" for g in "ab"
                                              for v in (0.1, 0.7, 0.4)))
        contrast = tmp_path / "c.csv"
        contrast.write_text("label,c1,c2\nx,1,nan\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, [
            "analyze", "--input", str(data), "--group-col", "group",
            "--outcomes", "y", "--contrast", f"custom:{contrast}",
            "--B", "200", "--out", str(out_dir),
        ])
        assert code == 2
        assert err.splitlines() == ["error: non-finite value 'nan' in column 'c2' "
                                    "at contrast row 1"]
        assert out == "" and not out_dir.exists()

    def test_overflowing_custom_contrast_exits_2_at_the_observed_fit(self, capsys,
                                                                     tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("group,y\na,1.0\na,2.5\nb,0.3\nb,4.0\n")
        contrast = tmp_path / "c.csv"
        contrast.write_text("label,c1,c2\nx,1e308,-1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "analyze", "--input", str(data), "--group-col", "group",
                "--outcomes", "y", "--contrast", f"custom:{contrast}", "--B", "20",
            ])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: contrast 'x' overflows: its studentizer h'Dh or its statistic "
            "is not finite"
        ]

    def test_repeated_outcome_column_exits_2(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("group,y1,y1,z\n" + "".join(f"{g},{v},{-v},{v * v}\n"
                                                   for g in "ab" for v in (1, 2, 4)))
        code, out, err = run_cli(capsys, ["analyze", "--input", str(data),
                                          "--group-col", "group", "--outcomes", "y1"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: repeated column 'y1' in {data}"]

    @pytest.mark.parametrize("which, code", [("data", 2), ("contrast", 2), ("config", 1)])
    def test_latin1_byte_is_one_error_line(self, capsys, tmp_path, which, code):
        texts = {"data": "group,y\n" + "".join(f"{g},{v}\n" for g in "ab"
                                              for v in (0.1, 0.7, 0.4)),
                 "contrast": "label,c1,c2\nb - a,-1,1\n",
                 "config": json.dumps({"alpha": 0.05})}
        paths = {name: tmp_path / f"{name}.txt" for name in texts}
        for name, text in texts.items():  # a trailing Latin-1 byte in one file
            paths[name].write_bytes((text + "\u00e9" * (name == which)).encode("latin-1"))
        code_, out, err = run_cli(capsys, [
            "analyze", "--input", str(paths["data"]), "--group-col", "group",
            "--outcomes", "y", "--contrast", f"custom:{paths['contrast']}",
            "--config", str(paths["config"]),
        ])
        assert (code_, out) == (code, "")
        assert err.splitlines() == [f"error: {which} file {paths[which]} is not UTF-8 "
                                    f"at byte {len(texts[which])}"]

    def test_config_with_bom_is_read(self, capsys, tmp_path, hrv_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": hrv_path, "group-col": "group",
                                        "outcomes": "SDNN", "B": 20}),
                            encoding="utf-8-sig")
        code, _, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert code == 0, err

    def test_deeply_nested_config_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[" * 10**5 + "]" * 10**5)
        code, out, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: invalid JSON in config file {cfg_path}: ")

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
        doc = json.loads(Path(out_dir, "result.json").read_text())
        assert doc["meta"]["B"] == 120  # flag wins
        assert doc["meta"]["bootstrap"] == "parametric"

    @pytest.mark.parametrize("key, value, kind", [("B", "abc", "int"),
                                                  ("alpha", "x", "float"),
                                                  ("seed", [1], "int"),
                                                  ("B", float("inf"), "int"),
                                                  ("B", 150.9, "int"),
                                                  ("B", True, "int"),
                                                  ("B", "60", "int"),
                                                  ("dump-draws", "false", "bool"),
                                                  ("input", 3, "str"),
                                                  ("outcomes", ["SDNN", 1], "list")])
    def test_wrongly_typed_config_value_exits_1(self, capsys, tmp_path, hrv_path,
                                                key, value, kind):
        cfg = {"input": hrv_path, "group-col": "group", "outcomes": "SDNN,RMSSD",
               key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: config value {key} must be {kind}, got {value!r}"]

    def test_b_beyond_stream_range_is_one_error_line(self, capsys, tmp_path, hrv_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": hrv_path, "group-col": "group",
                                        "outcomes": "SDNN,RMSSD", "B": 10**30}))
        code, out, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: bootstrap replicate count B must be <= 2**32"]

    def test_config_bootstrap_outside_choices_exits_1(self, capsys, tmp_path, hrv_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": hrv_path, "group-col": "group",
                                        "outcomes": "SDNN,RMSSD", "bootstrap": "Wild"}))
        code, out, err = run_cli(capsys, ["analyze", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: unknown bootstrap kind 'Wild', expected one of wild, parametric"]

    def test_bootstrap_kind_reads_the_same_as_flag_and_in_config(self, capsys, tmp_path,
                                                                hrv_path):
        args = ["analyze", "--input", hrv_path, "--group-col", "group",
                "--outcomes", "SDNN,RMSSD"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bootstrap": "Wild"}))
        from_flag = run_cli(capsys, args + ["--bootstrap", "Wild"])
        from_config = run_cli(capsys, args + ["--config", str(cfg_path)])
        assert from_flag == from_config
        code, out, err = from_flag
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: unknown bootstrap kind 'Wild', expected one of wild, parametric"]

    def test_bootstrap_settings_are_checked_before_the_data(self, capsys, hrv_path):
        """B = 0 is reported, not the misspelt outcome column it comes with."""
        code, out, err = run_cli(capsys, [
            "analyze", "--input", hrv_path, "--group-col", "group",
            "--outcomes", "SDNNN", "--B", "0"])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: bootstrap replicate count B must be >= 1"]

    def test_alpha_is_checked_before_the_data(self, capsys, hrv_path):
        """alpha = 2 is reported, not the misspelt outcome column it comes with."""
        code, out, err = run_cli(capsys, [
            "analyze", "--input", hrv_path, "--group-col", "group",
            "--outcomes", "SDNNN", "--alpha", "2"])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: alpha must be in (0, 1), got 2.0"]

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
        lines = Path(out_dir, "study.csv").read_text().strip().splitlines()
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
        assert err.splitlines() == ["error: scenarios[0]: unknown distribution 'foo'"]

    @pytest.mark.parametrize("scenario, message", [
        ({"k": 3, "d": 2, "contrast_family": "tukeyy"},
         "contrast_family 'tukeyy': unknown contrast family 'tukeyy'"),
        ({"k": 3, "d": 2, "contrast_family": "two_sample"},
         "contrast_family 'two_sample': two-sample contrasts require k=2 groups, "
         "got k=3"),
    ])
    def test_bad_contrast_family_exits_1_before_any_run(self, capsys, tmp_path,
                                                        monkeypatch, scenario, message):
        def no_study(*args, **kwargs):
            raise AssertionError("run_study was called")

        monkeypatch.setattr("bootmctp.cli.run_study", no_study)
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"runs": 2, "B": 20, "scenarios": [scenario]}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path),
                                          "--out", str(out_dir)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: scenarios[0]: {message}"]
        assert not (out_dir / "study.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        ({"B": 0}, "bootstrap replicate count B must be >= 1"),
        ({"B": 2**32 + 1}, "bootstrap replicate count B must be <= 2**32"),
    ])
    def test_bad_bootstrap_setting_exits_1_before_any_run(self, capsys, tmp_path,
                                                          monkeypatch, setting, message):
        def no_dataset(scenario, rng):
            raise AssertionError("gen_dataset was called")

        monkeypatch.setattr("bootmctp.simgen.gen_dataset", no_dataset)
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"runs": 2, **setting,
                                        "scenarios": [{"k": 3, "d": 2}]}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path),
                                          "--out", str(out_dir)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not (out_dir / "study.csv").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_delta_exits_1_before_any_run(self, capsys, tmp_path,
                                                     monkeypatch, literal):
        def no_study(*args, **kwargs):
            raise AssertionError("run_study was called")

        monkeypatch.setattr("bootmctp.cli.run_study", no_study)
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text('{"scenarios": [{"k": 2, "d": 2, "alternative": '
                            f'"shift", "delta": {literal}}}]}}')
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert err.splitlines() == ["error: scenarios[0]: delta must be finite"]

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(
            {"run": 10, "runs": 2, "B": 20, "scenarios": [{"k": 2, "d": 2}]}
        ))
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: unknown config keys: ['run']"]

    def test_unknown_scenario_key_exits_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"scenarios": [{"k": 2, "d": 2, "c": 1}]}))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert err.splitlines() == ["error: unknown scenario keys: ['c']"]

    @pytest.mark.parametrize("cfg, message", [
        ({"scenarios": [1]}, "scenarios[0] must be a JSON object, got 1"),
        ({"scenarios": [{"k": 2, "d": 2}, {"k": "3", "d": 2}]},
         "scenarios[1]: k must be an integer, got '3'"),
        ({"scenarios": [{"k": 2, "d": 2, "delta": "0"}]},
         "scenarios[0]: delta must be a real number, got '0'"),
        ({"scenarios": [{"k": 2, "d": 2}], "runs": "ten"},
         "config value runs must be int, got 'ten'"),
        ({"scenarios": [{"k": 2, "d": 2}], "runs": 2.7},
         "config value runs must be int, got 2.7"),
        ({"scenarios": [{"k": 2, "d": 2, "covariance": True}]},
         "scenarios[0]: covariance must be an integer, got True"),
        ({"scenarios": {"k": 2, "d": 2}},
         "config must define a non-empty 'scenarios' list"),
    ])
    def test_wrongly_typed_config_value_exits_1(self, capsys, tmp_path, cfg, message):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("cfg, message", [
        ({"workers": -3}, "workers must be >= 1"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"runs": 10**30}, f"runs must be <= {sys.maxsize}"),
        ({"runs": 10**30, "workers": 2}, f"runs must be <= {sys.maxsize}"),
    ])
    def test_invalid_study_settings_exit_1(self, capsys, tmp_path, cfg, message):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"runs": 2, "B": 20,
                                        "scenarios": [{"k": 2, "d": 2}], **cfg}))
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_error_inside_a_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        """A fault in the program is raised as itself, not as invalid settings."""

        def gen_dataset_broken(scenario, rng):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("bootmctp.simgen.gen_dataset", gen_dataset_broken)
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"runs": 2, "B": 20,
                                        "scenarios": [{"k": 2, "d": 2}]}))
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["simulate", "--config", str(cfg_path)])

    def test_missing_config_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, ["simulate", "--config", "/nope.json"])
        assert code == 1


class TestLargeFamily:
    """Tukey with k = 10 and d = 5: r = 45 * 5 = 225 contrasts end to end."""

    K, D, R = 10, 5, 225

    @pytest.mark.parametrize("kind", ["wild", "parametric"])
    def test_analyze_reports_every_contrast(self, capsys, tmp_path, kind):
        rng = np.random.default_rng(10)
        path = tmp_path / "big.csv"
        outcomes = [f"y{j + 1}" for j in range(self.D)]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", *outcomes, "z"])
            for g in range(self.K):
                for _ in range(6):
                    writer.writerow([f"g{g + 1}", *rng.standard_normal(self.D + 1)])
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, [
            "analyze", "--input", str(path), "--group-col", "group",
            "--outcomes", ",".join(outcomes), "--covariates", "z",
            "--contrast", "tukey", "--bootstrap", kind, "--B", "200",
            "--out", str(out_dir),
        ])
        assert code == 0, err
        rows = json.loads((out_dir / "result.json").read_text())["contrasts"]
        assert len(rows) == self.R
        assert all(np.isfinite([o["statistic"], o["quantile"], o["p_value"],
                                o["ci_lower"], o["ci_upper"]]).all() for o in rows)
        table = (out_dir / "result.txt").read_text().splitlines()
        assert sum(ln.endswith((" reject", " retain")) for ln in table) == self.R

    def test_study_gives_two_results(self):
        from bootmctp import SimScenario, run_study

        sc = SimScenario(k=self.K, d=self.D, contrast_family="tukey")
        results = run_study([sc], runs=2, B=100, alpha=0.05, seed=11)
        assert [r.method for r in results] == ["wild", "parametric"]
        for r in results:
            assert (r.runs, r.B) == (2, 100)
            assert r.rate in (0.0, 50.0, 100.0)
            assert 0.0 <= r.ci_lower <= r.rate <= r.ci_upper <= 100.0


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
        assert err.splitlines() == [
            "error: row 'contrast 2' is not a contrast: coefficients sum to 1, expected 0"]

    def test_missing_custom_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "absent.csv"
        code, out, err = run_cli(
            capsys, ["contrasts", "--contrast", f"custom:{path}", "--k", "2", "--d", "2"])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: custom contrast file not found: {path}"]

    def test_custom_file_blank_label_exits_2_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("label,c1,c2\n,1,-1\n")
        code, out, err = run_cli(
            capsys, ["contrasts", "--contrast", f"custom:{path}", "--k", "2", "--d", "1"])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: labels must not be blank, got ('',)"]

    @pytest.mark.parametrize("flag", ["--groups", "--outcomes"])
    def test_names_with_a_custom_file_exit_1_before_it_is_read(self, capsys, tmp_path, flag):
        """A custom file names its own rows, so the flag would be ignored; the file,
        whose bad cell would exit 2, is not read."""
        path = tmp_path / "c.csv"
        path.write_text("label,c1,c2\nfirst,1,oops\n")
        code, out, err = run_cli(capsys, ["contrasts", "--contrast", f"custom:{path}",
                                          "--k", "2", "--d", "1", flag, "x,y"])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {flag} does not apply to a custom: contrast file, which names its own rows"]

    def test_invalid_family_k_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["contrasts", "--contrast", "two-sample", "--k", "3", "--d", "2"]
        )
        assert code == 2
        assert "k=2" in err

    def test_negative_outcome_count_exits_2_with_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, ["contrasts", "--contrast", "tukey", "--k", "3", "--d", "-1"])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: contrasts require d>=1 outcome components, got d=-1"]

    def test_repeated_group_names_exit_2_with_one_line(self, capsys):
        code, out, err = run_cli(capsys, ["contrasts", "--contrast", "dunnett", "--k", "3",
                                          "--d", "1", "--groups", "a,b,a"])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: group names must be distinct, got ('a', 'b', 'a')"]


@pytest.mark.parametrize("argv, usage, message", [
    (["analyze", "--bogus"], "usage: bootmctp [-h]", "unrecognized arguments: --bogus"),
    (["simulate"], "usage: bootmctp simulate [-h] --config CONFIG",
     "the following arguments are required: --config"),
])
def test_usage_error_exits_1_with_the_usage_line(capsys, argv, usage, message):
    """argparse's usage errors exit 1, not argparse's 2 (the invalid-data code)."""
    with pytest.raises(SystemExit) as raised:
        main(argv)
    err = capsys.readouterr().err
    assert raised.value.code == 1
    assert err.startswith(usage)
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand, settings", [("analyze", ANALYZE_SETTINGS),
                                                  ("simulate", SIMULATE_SETTINGS)])
def test_readme_lists_each_setting_with_its_type_and_default(subcommand, settings):
    """The README's list of config keys is the CLI's table of settings."""
    text = README.read_text(encoding="utf-8")
    header = f"The settings of `{subcommand}` (JSON type,"
    bullets = text.split(header, 1)[1].split("\n\n", 2)[1]
    assert re.findall(r"^- `([\w-]+)`", bullets, re.M) == [s[0] for s in settings]
    typed = re.findall(r"^- `([\w-]+)` \((\w+), (?:required|default `([^`]*)`)",
                       bullets, re.M)
    assert typed == [(name, kind.__name__, "" if default is ... else json.dumps(default))
                     for name, kind, default, _ in settings if kind is not None]
