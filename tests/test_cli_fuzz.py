"""Fuzzed data, contrast and config files never crash the CLI.

Hypothesis builds CSV bytes (header variants, quoting, blank lines, a BOM,
Latin-1 bytes, NaN and inf spellings, ragged rows) and JSON configs (wrong
types, nesting), and the tests run `cli.main` in-process at small B.  Each
example is a valid file with harmless variations and the defect that the
test's parameter names, if any.  Every run exits 0, 1 or 2, and a failing
run prints exactly one `error:` line and no traceback.  An accepted data
file gives the same result.json as its rows rewritten by `csv.writer`, apart
from `meta.input`.
"""

import codecs
import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootmctp.cli import ANALYZE_SETTINGS, main
from bootmctp.simgen import SimScenario

from conftest import DATA_DIR

HRV = os.path.abspath(os.path.join(DATA_DIR, "hrv_synthetic.csv"))
NUMBERS = st.floats(-50, 50, allow_nan=False).map(lambda v: f"{v:.6g}")
ODD_CELLS = st.sampled_from(["", " ", "nan", "NaN", "-inf", "Infinity", "1e400",
                             "x", "1,5", '"2"', "é"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(alphabet="ab,. -é", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="abk", max_size=2), inner, max_size=3),
    max_leaves=6)
DEFECTS = [None, "value", "shape", "latin-1"]
FEW = settings(max_examples=12)


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == (1 if code else 0), err


def write(path: str, raw: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(raw)
    return path


def variant(draw, cell: str) -> str:
    """`cell` as is, padded with blanks or quoted: each reads back the same."""
    how = draw(st.sampled_from(["plain", "plain", "padded", "quoted"]))
    if how == "quoted" or "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return f" {cell} " if how == "padded" and cell.strip() else cell


def encoded(draw, text: str, defect) -> bytes:
    """`text` as UTF-8 with or without a BOM, or as Latin-1 for that defect."""
    if defect == "latin-1":
        return text.encode("latin-1")
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


@st.composite
def data_files(draw, defect) -> bytes:
    names = list(draw(st.permutations(["group", "y", "z", "note"])))
    # The shape defect is a repeated, renamed or missing column, or a ragged row.
    shape = draw(st.sampled_from(["header", "row"])) if defect == "shape" else None
    if shape == "header":
        names[0] = draw(st.sampled_from([names[1], names[0].upper(), "other"]))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(6, 10))
    rows = [{"group": "abc"[i % k], "y": draw(NUMBERS), "z": draw(NUMBERS),
             "note": draw(st.sampled_from(["", "ok", "x, y", 'say "é"']))}
            for i in range(n)]
    if defect == "latin-1":
        rows[-1]["note"] = "é"
    if defect == "value":
        rows[draw(st.integers(0, n - 1))][draw(st.sampled_from("yz"))] = draw(ODD_CELLS)
    ragged = draw(st.integers(0, n - 1)) if shape == "row" else None
    lines = [",".join(variant(draw, name) for name in names)]
    for i, row in enumerate(rows):
        cells = [variant(draw, row.get(name, "1")) for name in names]
        if i == ragged:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
        if draw(st.integers(0, 5)) == 5:
            lines.append(draw(st.sampled_from(["", " ", ",,,"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return encoded(draw, newline.join(lines) + newline, defect)


@st.composite
def contrast_files(draw, defect) -> bytes:
    header = list(draw(st.sampled_from([("label", "c1", "c2"), ("c1", "c2"),
                                        ("c2", " Label ", "c1")])))
    if defect == "shape":
        header.append(draw(st.sampled_from(["c3", "label"])))
    lines = [",".join(variant(draw, name) for name in header)]
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from([1, -1]))
        coef = {"c1": str(sign), "c2": str(-sign), "c3": "0"}
        cells = [coef.get(name.strip(), f"r{i}") for name in header]
        if defect == "value":
            cells[-1] = draw(ODD_CELLS)
        lines.append(",".join(variant(draw, cell) for cell in cells))
    if defect == "latin-1":
        lines.append("é" + lines[-1])
    return encoded(draw, "\n".join(lines) + "\n", defect)


GOOD = {"input": HRV, "group-col": "group", "outcomes": "SDNN,RMSSD",
        "covariates": ["PSS"], "B": 20}
KEYS = [name for name, *_ in ANALYZE_SETTINGS if name != "out"] + ["seeds"]


@st.composite
def configs(draw, defect) -> tuple[str, bytes]:
    command = draw(st.sampled_from(["analyze", "simulate"]))
    if command == "analyze":
        cfg = dict(GOOD)
        if defect == "value":
            cfg[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
    else:
        scenario = {"k": 2, "d": 2}
        if defect == "value":
            key = draw(st.sampled_from([*SimScenario.__dataclass_fields__, "n"]))
            scenario[key] = draw(st.integers(-1, 3) | JSON_VALUES)
        cfg = {"scenarios": [scenario]}
    if defect == "shape":
        cfg = draw(st.sampled_from([list(cfg), cfg.get("scenarios", [])])
                   | JSON_VALUES)
    text = json.dumps(cfg, ensure_ascii=False)
    if defect == "nested":
        text = "[" * 5000 + text + "]" * 5000
    elif defect == "latin-1":
        text = '{"é": 1, ' + text[1:] if text[0] == "{" else text + "é"
    return command, encoded(draw, text, defect)


def canonical(raw: bytes) -> str:
    """The non-blank rows of an accepted CSV file, written by csv.writer."""
    reader = csv.reader(io.StringIO(raw.decode("utf-8-sig"), newline=""))
    out = io.StringIO()
    csv.writer(out).writerows(row for row in reader if any(c.strip() for c in row))
    return out.getvalue()


def result(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["meta"]["input"]
    return doc


@pytest.mark.parametrize("defect", DEFECTS)
@FEW
@given(data=st.data())
def test_data_files(defect, data):
    raw = data.draw(data_files(defect))
    argv = ["analyze", "--group-col", "group", "--outcomes", "y", "--covariates", "z",
            "--contrast", "grand-mean", "--B", "20"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write(os.path.join(tmp, "data.csv"), raw)
        code, err = run(argv + ["--input", path, "--out", os.path.join(tmp, "a")])
        assert_clean_exit(code, err)
        if code == 0:
            again = write(os.path.join(tmp, "again.csv"), canonical(raw).encode())
            assert run(argv + ["--input", again, "--out", os.path.join(tmp, "b")]) \
                == (0, err)
            assert result(os.path.join(tmp, "a")) == result(os.path.join(tmp, "b"))


@pytest.mark.parametrize("defect", DEFECTS)
@FEW
@given(data=st.data())
def test_contrast_files(defect, data):
    raw = data.draw(contrast_files(defect))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(os.path.join(tmp, "contrast.csv"), raw)
        assert_clean_exit(*run(["contrasts", "--contrast", f"custom:{path}",
                                "--k", "2", "--d", "1"]))


@pytest.mark.parametrize("defect", DEFECTS + ["nested"])
@FEW
@given(data=st.data())
def test_config_files(defect, data):
    command, raw = data.draw(configs(defect))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(os.path.join(tmp, "cfg.json"), raw)
        flags = ["--runs", "1", "--B", "10"] if command == "simulate" else []
        assert_clean_exit(*run([command, "--config", path, "--out", tmp, *flags]))
