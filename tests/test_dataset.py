import codecs
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bootmctp import (BootstrapConfig, BootstrapDraws, ContrastError, ContrastMatrix, CsvSchema,
                      Dataset, DataError, EstimationError, build_family, load_csv, run_mctp,
                      validate)
from bootmctp.contrasts import from_csv
from bootmctp.dataset import group_slices
from bootmctp.simgen import gen_covariates

from conftest import random_dataset


def write_csv(tmp_path, name, header, rows):
    path = tmp_path / name
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


SMALL_HEADER = ["group", "y1", "y2", "z1"]
SMALL_ROWS = [
    ["a", 1.0, 2.0, 0.3],
    ["a", 1.5, 2.5, -0.2],
    ["b", 0.5, 1.0, 0.1],
    ["b", 0.0, 0.5, 0.6],
    ["b", 0.25, 0.75, -0.4],
]
SMALL_SCHEMA = CsvSchema(group="group", outcomes=("y1", "y2"), covariates=("z1",))


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Equal labels, sizes and names, and bitwise equal arrays."""
    return ((a.groups, a.n_i, a.outcome_names, a.covariate_names)
            == (b.groups, b.n_i, b.outcome_names, b.covariate_names)
            and a.Y.tobytes() == b.Y.tobytes() and a.Z.tobytes() == b.Z.tobytes()
            and a.Y.shape == b.Y.shape and a.Z.shape == b.Z.shape)


class TestLoadCsv:
    def test_hrv_shape(self, hrv_path, hrv_schema):
        ds = load_csv(hrv_path, hrv_schema)
        assert (ds.k, ds.d, ds.c) == (2, 5, 2)
        assert ds.n == 45
        assert set(ds.groups) == {"hypnosis", "control"}

    def test_single_group_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, "one.csv", SMALL_HEADER,
            [row for row in SMALL_ROWS if row[0] == "a"],
        )
        with pytest.raises(DataError, match="k >= 2"):
            load_csv(path, SMALL_SCHEMA)

    def test_shuffled_rows_regrouped(self, tmp_path):
        shuffled = [SMALL_ROWS[i] for i in (2, 0, 4, 1, 3)]
        path = write_csv(tmp_path, "shuffled.csv", SMALL_HEADER, shuffled)
        ds = load_csv(path, SMALL_SCHEMA)
        assert (ds.k, ds.d, ds.c) == (2, 2, 1)
        # first-appearance order: group 'b' came first in the shuffled file
        assert ds.groups == ("b", "a") and ds.n_i == (3, 2)
        # each group's rows hold that group's file rows, in file order
        for label, sl in zip(ds.groups, group_slices(ds.n_i)):
            rows = [row[1:] for row in shuffled if row[0] == label]
            assert np.array_equal(np.hstack([ds.Y[sl], ds.Z[sl]]), rows)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", SMALL_HEADER, SMALL_ROWS)
        schema = CsvSchema(group="group", outcomes=("y1", "nope"))
        with pytest.raises(DataError, match="missing column 'nope'"):
            load_csv(path, schema)

    def test_non_numeric_cell(self, tmp_path):
        rows = [list(r) for r in SMALL_ROWS]
        rows[2][1] = "oops"
        path = write_csv(tmp_path, "bad.csv", SMALL_HEADER, rows)
        with pytest.raises(DataError, match="non-numeric cell 'oops'"):
            load_csv(path, SMALL_SCHEMA)

    def test_missing_value_fatal(self, tmp_path):
        rows = [list(r) for r in SMALL_ROWS]
        rows[1][3] = ""
        path = write_csv(tmp_path, "gap.csv", SMALL_HEADER, rows)
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, SMALL_SCHEMA)

    def test_inconsistent_row_length(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("group,y1,y2,z1\na,1,2,0.3\na,1,2\nb,0,1,0.1\n")
        with pytest.raises(DataError, match="inconsistent row length"):
            load_csv(str(path), SMALL_SCHEMA)

    @pytest.mark.parametrize("cell", ["1e400", "inf", "-Infinity", "nan", " NaN "])
    def test_non_finite_cell_named_as_such(self, tmp_path, cell):
        rows = [list(r) for r in SMALL_ROWS]
        rows[3][2] = cell
        path = write_csv(tmp_path, "inf.csv", SMALL_HEADER, rows)
        with pytest.raises(DataError, match=(
                f"^non-finite value '{cell.strip()}' in column 'y2' at data row 4$")):
            load_csv(path, SMALL_SCHEMA)

    def test_repeated_schema_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "rep.csv", ["group", "y1", "y1", "z1"], SMALL_ROWS)
        with pytest.raises(DataError, match=f"^repeated column 'y1' in {re.escape(path)}$"):
            load_csv(path, CsvSchema(group="group", outcomes=("y1",)))

    def test_empty_group_label_named_by_row(self, tmp_path):
        rows = [row[:] for row in SMALL_ROWS]
        rows[2][0] = " "
        path = write_csv(tmp_path, "blank.csv", SMALL_HEADER, rows)
        with pytest.raises(DataError, match="^empty group label at data row 3$"):
            load_csv(path, SMALL_SCHEMA)

    @pytest.mark.parametrize("outcomes, covariates, message", [
        ((), (), "at least one outcome column"),
        (("y1", "y1"), (), r"^schema outcomes must be distinct, got \('y1', 'y1'\)$"),
        (("y1",), ("group",), "schema columns must be distinct"),
        ("SDNN", (), "^schema outcomes must be a sequence of str, got 'SDNN'$"),  # not S, D, N, N
        ("HF", (), "^schema outcomes must be a sequence of str, got 'HF'$"),  # not H, F
        (("SDNN",), "HF", "^schema covariates must be a sequence of str, got 'HF'$"),
    ])
    def test_schema_rules(self, outcomes, covariates, message):
        with pytest.raises(DataError, match=message):
            CsvSchema(group="group", outcomes=outcomes, covariates=covariates)

    @pytest.mark.parametrize("group", [["group"], ("group",), 3, None])
    def test_schema_group_is_one_str(self, group):
        with pytest.raises(DataError) as info:
            CsvSchema(group=group, outcomes=("y1",))
        assert str(info.value) == f"schema group must be a str, got {group!r}"

    def test_repeated_column_outside_the_schema_allowed(self, tmp_path):
        header = ["note", "group", "y1", "y2", "z1", "note"]
        rows = [["x", *row, "y"] for row in SMALL_ROWS]
        ds = load_csv(write_csv(tmp_path, "notes.csv", header, rows), SMALL_SCHEMA)
        plain = load_csv(write_csv(tmp_path, "plain.csv", SMALL_HEADER, SMALL_ROWS),
                         SMALL_SCHEMA)
        assert same_dataset(ds, plain)

    def test_utf8_bom_loads_the_same_dataset(self, tmp_path):
        path = Path(write_csv(tmp_path, "plain.csv", SMALL_HEADER, SMALL_ROWS))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert same_dataset(load_csv(str(bom), SMALL_SCHEMA),
                            load_csv(str(path), SMALL_SCHEMA))

    @pytest.mark.parametrize("prefix", [b"", codecs.BOM_UTF8])
    def test_bytes_that_are_not_utf8_name_file_and_offset(self, tmp_path, prefix):
        path = tmp_path / "latin1.csv"
        path.write_bytes(prefix + "group,y1\nx,1\nb\u00e9,2\n".encode("latin-1"))
        offset = len(prefix) + len(b"group,y1\nx,1\nb")
        with pytest.raises(DataError, match=(
                f"^data file {re.escape(str(path))} is not UTF-8 at byte {offset}$")):
            load_csv(str(path), CsvSchema(group="group", outcomes=("y1",)))

    def test_field_beyond_the_csv_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("group,y1\na,1\nb," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            load_csv(str(path), CsvSchema(group="group", outcomes=("y1",)))

    @pytest.mark.parametrize("text, message", [
        ("", "empty data file"),
        ("group,y1\n\n , \n", "no data rows"),
    ])
    def test_empty_file_and_no_rows(self, tmp_path, text, message):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{message}"):
            load_csv(str(path), CsvSchema(group="group", outcomes=("y1",)))

    def test_deterministic_reload(self, tmp_path):
        path = write_csv(tmp_path, "det.csv", SMALL_HEADER, SMALL_ROWS)
        a = load_csv(path, SMALL_SCHEMA)
        b = load_csv(path, SMALL_SCHEMA)
        assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z)
        assert validate(a) == validate(b)


BLOCK_COLUMNS = "need outcome blocks, each kind with one column count"


class TestDatasetInvariants:
    def test_requires_two_groups(self):
        with pytest.raises(DataError, match="k >= 2"):
            Dataset.from_group_blocks(["a"], [np.ones((3, 1))])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset.from_group_blocks(["a", "b"], [np.array([[np.nan]]), np.ones((1, 1))])

    @pytest.mark.parametrize("change, message", [
        ({"Y": np.ones(5)}, "Y must be a 2-d matrix with at least one column"),
        ({"Y": np.ones((5, 0))}, "Y must be a 2-d matrix with at least one column"),
        ({"Z": np.ones(5)}, "Z must be a 2-d matrix"),
        ({"n_i": (2, 2, 1)}, "groups and n_i must have the same length"),
        ({"n_i": (5, 0)}, "every group must contain at least one row"),
        ({"n_i": (2, 2)}, "row counts of Y and Z must equal sum"),
        ({"Z": np.ones((4, 1))}, "row counts of Y and Z must equal sum"),
        ({"Z": [[0.0]] * 4 + [[np.inf]]}, "non-finite values in Y or Z"),
        ({"outcome_names": ("a",)}, "expected 2 outcome_names, got 1"),
        ({"covariate_names": ("a", "b")}, "expected 1 covariate_names, got 2"),
        ({"n_i": (2.7, 3.2)}, "group size must be an integer, got 2.7"),
        ({"n_i": ("2", 3)}, "group size must be an integer, got '2'"),
    ])
    def test_direct_construction_rules(self, change, message):
        fields = {"groups": ("a", "b"), "n_i": (2, 3), "Y": np.ones((5, 2)),
                  "Z": np.zeros((5, 1))}
        Dataset(**fields)
        with pytest.raises(DataError, match=re.escape(message)):
            Dataset(**{**fields, **change})

    @pytest.mark.parametrize("Y_blocks, Z_blocks, message", [
        ([np.arange(5.0), np.arange(5.0)], None,
         "outcome and covariate blocks must be 2-d (rows x columns)"),
        ([np.ones((3, 1)), np.ones((4, 1))], [np.arange(3.0), np.arange(4.0)],
         "outcome and covariate blocks must be 2-d (rows x columns)"),
        ([np.ones((3, 1)), np.ones((4, 1))], [np.ones((4, 1)), np.ones((3, 1))],
         "each covariate block must have its outcome block's rows"),
        ([], None, BLOCK_COLUMNS),
        ([], [], BLOCK_COLUMNS),
        ([np.ones((3, 1)), np.ones((4, 2))], None, BLOCK_COLUMNS),
        ([np.ones((3, 1)), np.ones((4, 1))], [np.ones((3, 1)), np.ones((4, 2))],
         BLOCK_COLUMNS),
    ])
    def test_group_blocks_rules(self, Y_blocks, Z_blocks, message):
        with pytest.raises(DataError) as info:
            Dataset.from_group_blocks(["a", "b"], Y_blocks, Z_blocks)
        assert str(info.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: Dataset(("a", "b"), None, np.ones((2, 1)), np.zeros((2, 0))),
         "n_i must be a sequence of integers, got None"),
        (lambda: Dataset(("a", "b"), 2, np.ones((2, 1)), np.zeros((2, 0))),
         "n_i must be a sequence of integers, got 2"),
        (lambda: Dataset.from_group_blocks(["a", "b"], None),
         "Y_blocks must be a sequence of arrays, got None"),
        (lambda: Dataset.from_group_blocks(["a", "b"], 3.0),
         "Y_blocks must be a sequence of arrays, got 3.0"),
        (lambda: Dataset.from_group_blocks(["a", "b"], [np.ones((1, 1))] * 2, 0),
         "Z_blocks must be a sequence of arrays, got 0"),
    ], ids=["n_i-None", "n_i-int", "Y_blocks-None", "Y_blocks-float", "Z_blocks-int"])
    def test_sizes_and_blocks_must_be_sequences(self, build, message):
        """A non-iterable size or block list is one DataError line, not a bare TypeError."""
        with pytest.raises(DataError) as info:
            build()
        assert str(info.value) == message

    def test_numpy_group_sizes_stored_as_python_ints(self):
        ds = Dataset(("a", "b"), np.array([2, 3]), np.ones((5, 1)), np.zeros((5, 0)))
        assert ds.n_i == (2, 3)
        assert all(type(m) is int for m in ds.n_i)

    def test_default_names(self):
        ds = Dataset(("a", "b"), (2, 3), np.ones((5, 2)), np.zeros((5, 3)))
        assert ds.outcome_names == ("Y1", "Y2")
        assert ds.covariate_names == ("Z1", "Z2", "Z3")
        assert Dataset(("a", "b"), (2, 3), np.ones((5, 1)),
                       np.zeros((5, 0))).covariate_names == ()

    def test_relabeling_keeps_sizes(self):
        ds = random_dataset(5, k=3, n_i=(4, 6, 5))
        perm = [2, 0, 1]
        slices = group_slices(ds.n_i)
        permuted = Dataset.from_group_blocks(
            groups=[ds.groups[i] for i in perm],
            Y_blocks=[ds.Y[slices[i]] for i in perm],
            Z_blocks=[ds.Z[slices[i]] for i in perm],
        )
        assert permuted.k == ds.k and permuted.d == ds.d and permuted.c == ds.c
        assert sorted(permuted.n_i) == sorted(ds.n_i)

    def test_arrays_read_only(self):
        ds = random_dataset(6)
        with pytest.raises(ValueError):
            ds.Y[0, 0] = 1.0


class TestValidate:
    def test_duplicated_covariate_column(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, size=(10, 1))
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((5, 2)), rng.standard_normal((5, 2))],
            [np.hstack([z[:5], z[:5]]), np.hstack([z[5:], z[5:]])],
        )
        report = validate(ds)
        assert not report.ok
        assert any("rank deficiency" in e for e in report.errors)

    def test_covariate_equal_to_group_indicator(self):
        rng = np.random.default_rng(1)
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((5, 1)), rng.standard_normal((5, 1))],
            [np.ones((5, 1)), np.zeros((5, 1))],
        )
        report = validate(ds)
        assert any("rank deficiency" in e for e in report.errors)

    def test_generated_covariates_pass(self):
        rng = np.random.default_rng(7)
        ds = Dataset.from_group_blocks(
            ["a", "b", "c"],
            [rng.standard_normal((10, 2)) for _ in range(3)],
            [gen_covariates(10, rng) for _ in range(3)],
        )
        report = validate(ds)
        assert report.ok
        assert report.errors == ()

    def test_constant_component_warns(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal((6, 2))
        y1[:, 1] = 3.25
        ds = Dataset.from_group_blocks(
            ["a", "b"], [y1, rng.standard_normal((6, 2))]
        )
        report = validate(ds)
        assert report.ok  # warning only
        assert any("zero within-group variance" in w for w in report.warnings)

    def test_small_group_warns(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_group_blocks(
            ["a", "b"],
            [rng.standard_normal((3, 1)), rng.standard_normal((9, 1))],
            [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (9, 2))],
        )
        report = validate(ds)
        assert any("n_i <= c+1" in w for w in report.warnings)

    def test_groups_of_two_without_covariates_warn_through_run_mctp(self):
        # Each Dunnett contrast also holds group 1's variance, so no replicate
        # is degenerate; Tukey's g2 - g1 compares two groups of two and is.
        ds = random_dataset(0, k=3, d=1, c=0, n_i=(8, 2, 2))
        result = run_mctp(ds, build_family("dunnett", 3, 1), BootstrapConfig("wild", 200, 1),
                          0.05)
        pairs = [w for w in result.warnings if w.startswith("n_i=2 and c=0")]
        assert [w.split(":")[0] for w in pairs] == [
            "n_i=2 and c=0 in group 2 ('g2')", "n_i=2 and c=0 in group 3 ('g3')"]
        assert all("wild bootstrap" in w for w in pairs)
        assert result.invalid_redraws == 0
        with pytest.raises(EstimationError, match="degenerate bootstrap distribution"):
            run_mctp(random_dataset(0, k=3, d=1, c=0, n_i=(2, 2, 8)), build_family("tukey", 3, 1),
                     BootstrapConfig("wild", 200, 1), 0.05)

    def test_groups_of_two_with_a_covariate_do_not_warn_of_the_signs(self):
        ds = random_dataset(0, k=3, d=1, c=1, n_i=(2, 5, 8))
        assert not any("n_i=2 and c=0" in w for w in validate(ds).warnings)

    def test_empty_errors_iff_admissible(self):
        ds = random_dataset(11)
        report = validate(ds)
        assert report.ok and report.errors == ()


FOUR_ROWS = {"n_i": (2, 2), "Y": np.ones((4, 2)), "Z": np.zeros((4, 1))}


@pytest.mark.parametrize("build, error, message", [
    (lambda: ContrastMatrix([[1, -1], [1, -1]], "xy"), ContrastError,
     "labels must be a sequence of str, got 'xy'"),
    (lambda: ContrastMatrix([[1, -1]], labels=[3]), ContrastError,
     "labels must be a sequence of str, got [3]"),
    (lambda: ContrastMatrix([[1, -1]], labels=None), ContrastError,
     "labels must be a sequence of str, got None"),
    (lambda: build_family("dunnett", 2, 2, group_names="AB", outcome_names="xy"),
     ContrastError, "group names must be a sequence of str, got 'AB'"),
    (lambda: build_family("tukey", 2, 2, outcome_names=("x", 2)), ContrastError,
     "outcome names must be a sequence of str, got ('x', 2)"),
    (lambda: Dataset(groups="AB", **FOUR_ROWS), DataError,
     "groups must be a sequence of str, got 'AB'"),
    (lambda: Dataset(groups=("a", "b"), outcome_names="xy", **FOUR_ROWS), DataError,
     "outcome_names must be a sequence of str, got 'xy'"),
    (lambda: Dataset(groups=("a", "b"), covariate_names=None, **FOUR_ROWS), DataError,
     "covariate_names must be a sequence of str, got None"),
    (lambda: Dataset.from_group_blocks(["a", "b"], [np.ones((2, 1))] * 2, outcome_names="y"),
     DataError, "outcome_names must be a sequence of str, got 'y'"),
    (lambda: CsvSchema(group="group", outcomes=("y1", 2)), DataError,
     "schema outcomes must be a sequence of str, got ('y1', 2)"),
], ids=["labels-str", "labels-int", "labels-None", "group-names-str", "outcome-names-int",
        "groups-str", "outcome_names-str", "covariate_names-None", "blocks-outcome_names-str",
        "schema-outcomes-int"])
def test_name_sequences_take_only_str_sequences(build, error, message):
    """A bare str is not split into characters, and a name that is not a str is refused."""
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def contrast_file(tmp_path, text):
    path = tmp_path / "contrasts.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: Dataset(groups=("a", "a"), **FOUR_ROWS), DataError,
     "groups must be distinct, got ('a', 'a')"),
    (lambda tmp: Dataset(groups=("a", "b"), outcome_names=("y", "y"), **FOUR_ROWS), DataError,
     "outcome_names must be distinct, got ('y', 'y')"),
    (lambda tmp: Dataset(("a", "b"), (2, 2), np.ones((4, 1)), np.zeros((4, 2)),
                         covariate_names=["z", "z"]), DataError,
     "covariate_names must be distinct, got ('z', 'z')"),
    (lambda tmp: Dataset.from_group_blocks(["a", "b", "a"], [np.ones((2, 1))] * 3), DataError,
     "groups must be distinct, got ('a', 'b', 'a')"),
    (lambda tmp: CsvSchema(group="g", outcomes=("y1",), covariates=("z", "z")), DataError,
     "schema covariates must be distinct, got ('z', 'z')"),
    (lambda tmp: ContrastMatrix([[1, -1], [-1, 1]], ("x", "x")), ContrastError,
     "labels must be distinct, got ('x', 'x')"),
    (lambda tmp: build_family("dunnett", 3, 1, group_names=("a", "b", "a")), ContrastError,
     "group names must be distinct, got ('a', 'b', 'a')"),
    (lambda tmp: build_family("tukey", 2, 2, outcome_names=["y", "y"]), ContrastError,
     "outcome names must be distinct, got ('y', 'y')"),
    (lambda tmp: from_csv(contrast_file(tmp, "label,c1,c2\nx,1,-1\n\n x ,-1,1\n"), 2, 1),
     ContrastError, "labels must be distinct, got ('x', 'x')"),
], ids=["Dataset-groups", "Dataset-outcome_names", "Dataset-covariate_names",
        "blocks-groups", "schema-covariates", "labels", "build_family-groups",
        "build_family-outcomes", "from_csv-labels"])
def test_repeated_names_refused(tmp_path, build, error, message):
    """A name ties a group, an outcome or a contrast to its result rows, so each is distinct."""
    with pytest.raises(error) as info:
        build(tmp_path)
    assert str(info.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: Dataset(groups=("a", " "), **FOUR_ROWS), DataError,
     "groups must not be blank, got ('a', ' ')"),
    (lambda tmp: Dataset(groups=("a", "b"), outcome_names=("y", ""), **FOUR_ROWS), DataError,
     "outcome_names must not be blank, got ('y', '')"),
    (lambda tmp: Dataset(groups=("a", "b"), covariate_names=["\t"], **FOUR_ROWS), DataError,
     "covariate_names must not be blank, got ('\\t',)"),
    (lambda tmp: Dataset.from_group_blocks(["", "b"], [np.ones((2, 1))] * 2), DataError,
     "groups must not be blank, got ('', 'b')"),
    (lambda tmp: CsvSchema(group="g", outcomes=["", "y"]), DataError,
     "schema outcomes must not be blank, got ('', 'y')"),
    (lambda tmp: CsvSchema(group="g", outcomes=["y"], covariates=[" "]), DataError,
     "schema covariates must not be blank, got (' ',)"),
    (lambda tmp: CsvSchema(group="", outcomes=["y"]), DataError,
     "schema columns must not be blank, got ('', 'y')"),
    (lambda tmp: ContrastMatrix([[1, -1]], [" "]), ContrastError,
     "labels must not be blank, got (' ',)"),
    (lambda tmp: build_family("dunnett", 3, 1, group_names=("a", "", "c")), ContrastError,
     "group names must not be blank, got ('a', '', 'c')"),
    (lambda tmp: build_family("tukey", 2, 2, outcome_names=["y", " "]), ContrastError,
     "outcome names must not be blank, got ('y', ' ')"),
    (lambda tmp: from_csv(contrast_file(tmp, "label,c1,c2\n,1,-1\n"), 2, 1),
     ContrastError, "labels must not be blank, got ('',)"),
    (lambda tmp: from_csv(contrast_file(tmp, "Label,c1,c2\n,1,-1\n ,-1,1\n"), 2, 1),
     ContrastError, "labels must not be blank, got ('', '')"),
], ids=["Dataset-groups", "Dataset-outcome_names", "Dataset-covariate_names",
        "blocks-groups", "schema-outcomes", "schema-covariates", "schema-group", "labels",
        "build_family-groups", "build_family-outcomes", "from_csv-blank-label",
        "from_csv-blank-labels"])
def test_blank_names_refused(tmp_path, build, error, message):
    """A blank name leaves its result rows unnamed, so it is refused where it enters;
    two blank names are blank before they are repeated."""
    with pytest.raises(error) as info:
        build(tmp_path)
    assert str(info.value) == message


TWO_ROWS = {"groups": ("a", "b"), "n_i": (1, 1)}
REAL = "must be a rectangular array of real numbers"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Dataset(Y=[["x"], ["y"]], Z=np.zeros((2, 0)), **TWO_ROWS), DataError, f"Y {REAL}"),
    (lambda: Dataset(Y=np.ones((2, 1)) * (1 + 1j), Z=np.zeros((2, 0)), **TWO_ROWS), DataError,
     f"Y {REAL}"),
    (lambda: Dataset(Y=np.ones((2, 1)), Z=[[1.0], [2.0, 3.0]], **TWO_ROWS), DataError,
     f"Z {REAL}"),
    (lambda: Dataset(Y=np.ones((2, 1)), Z=np.ones((2, 1), dtype=bool), **TWO_ROWS), DataError,
     f"Z {REAL}"),
    (lambda: Dataset.from_group_blocks(["a", "b"], [[["1"]], [[2.0]]]), DataError,
     f"an outcome block {REAL}"),
    (lambda: Dataset.from_group_blocks(["a", "b"], [np.ones((1, 1))] * 2,
                                       [[[1j]], [[2.0]]]), DataError,
     f"a covariate block {REAL}"),
    (lambda: ContrastMatrix([[1, -1], [1]]), ContrastError, f"contrast matrix {REAL}"),
    (lambda: ContrastMatrix([["1", "-1"]]), ContrastError, f"contrast matrix {REAL}"),
    (lambda: ContrastMatrix([[1 + 0j, -1]]), ContrastError, f"contrast matrix {REAL}"),
    (lambda: BootstrapDraws(np.ones((2, 1), dtype=bool), "wild", 0), EstimationError,
     f"bootstrap statistics {REAL}"),
    (lambda: BootstrapDraws([[1.0], [2.0, 3.0]], "wild", 0), EstimationError,
     f"bootstrap statistics {REAL}"),
], ids=["Y-str", "Y-complex", "Z-ragged", "Z-bool", "Y-block-str", "Z-block-complex",
        "H-ragged", "H-str", "H-complex", "A_star-bool", "A_star-ragged"])
def test_array_fields_take_only_real_numbers(build, error, message):
    """A str, complex, bool or ragged array is refused, not cast or truncated."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning on a truncating cast
        with pytest.raises(error) as info:
            build()
    assert str(info.value) == message


# Each case: the caller's array, and how a constructor stores it and reads
# the stored copy back (a block's rows within the stacked field).
STORED = {
    "Dataset-Y": (np.ones((4, 2)), lambda a: Dataset(("a", "b"), (2, 2), a, np.zeros((4, 1))).Y),
    "Dataset-Z": (np.zeros((4, 1)), lambda a: Dataset(("a", "b"), (2, 2), np.ones((4, 2)), a).Z),
    "Y-block": (np.ones((2, 2)),
                lambda a: Dataset.from_group_blocks(("a", "b"), [a, np.ones((3, 2))]).Y[:2]),
    "Z-block": (np.zeros((3, 1)),
                lambda a: Dataset.from_group_blocks(("a", "b"), [np.ones((2, 2)),
                                                                 np.ones((3, 2))],
                                                    [np.zeros((2, 1)), a]).Z[2:]),
    "H": (np.array([[1.0, -1.0], [0.5, -0.5]]), lambda a: ContrastMatrix(a).H),
    "A_star": (np.array([[1.0, -2.0], [3.0, 0.5]]),
               lambda a: BootstrapDraws(a, "wild", 0).A_star),
}


@pytest.mark.parametrize("given, store", STORED.values(), ids=STORED.keys())
def test_array_fields_store_read_only_copies(given, store):
    """A constructor keeps its own read-only copy and leaves the caller's array
    writable, so a later write by the caller does not reach the stored value."""
    given = given.copy()
    stored = store(given)
    before = stored.copy()
    assert given.flags.writeable and not stored.flags.writeable
    given += 7.0
    assert np.array_equal(stored, before)
