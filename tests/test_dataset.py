import numpy as np
import pytest

from bootmctp import CsvSchema, Dataset, DataError, load_csv, validate
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
        assert sorted(ds.n_i) == [2, 3]
        # rows contiguous per group, original positions recorded
        assert np.array_equal(np.diff(ds.row_group) >= 0, [True] * (ds.n - 1))
        assert sorted(ds.source_rows.tolist()) == list(range(5))
        # first-appearance order: group 'b' came first in the shuffled file
        assert ds.groups[0] == "b"

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

    def test_deterministic_reload(self, tmp_path):
        path = write_csv(tmp_path, "det.csv", SMALL_HEADER, SMALL_ROWS)
        a = load_csv(path, SMALL_SCHEMA)
        b = load_csv(path, SMALL_SCHEMA)
        assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z)
        assert validate(a) == validate(b)


class TestDatasetInvariants:
    def test_requires_two_groups(self):
        with pytest.raises(DataError, match="k >= 2"):
            Dataset.from_group_blocks(["a"], [np.ones((3, 1))])

    def test_rejects_non_contiguous_rows(self):
        with pytest.raises(DataError, match="contiguous"):
            Dataset(
                groups=("a", "b"),
                n_i=(1, 1),
                Y=np.ones((2, 1)),
                Z=np.empty((2, 0)),
                row_group=np.array([1, 0]),
            )

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset.from_group_blocks(["a", "b"], [np.array([[np.nan]]), np.ones((1, 1))])

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

    def test_empty_errors_iff_admissible(self):
        ds = random_dataset(11)
        report = validate(ds)
        assert report.ok and report.errors == ()
