import codecs
import re

import numpy as np
import pytest

from bootmctp import (
    BootstrapConfig,
    ContrastError,
    ContrastMatrix,
    CsvSchema,
    build_family,
    load_csv,
    run_mctp,
)
from bootmctp.contrasts import ROW_SUM_TOL, from_csv


class TestTwoSample:
    def test_matches_kronecker_pattern_d5(self):
        cm = build_family("two_sample", 2, 5)
        assert cm.r == 5
        assert np.array_equal(cm.H, np.kron(np.array([[1.0, -1.0]]), np.eye(5)))

    def test_single_outcome(self):
        cm = build_family("two_sample", 2, 1)
        assert np.array_equal(cm.H, np.array([[1.0, -1.0]]))

    def test_rows_sum_to_zero(self):
        cm = build_family("two_sample", 2, 5)
        assert np.allclose(cm.H.sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_other_k(self):
        with pytest.raises(ContrastError, match="k=2"):
            build_family("two_sample", 3, 2)

    def test_outcome_labels(self):
        cm = build_family("two_sample", 2, 2, group_names=["hyp", "ctl"], outcome_names=["a",
                          "b"])
        assert cm.labels == ("hyp - ctl, a", "hyp - ctl, b")


class TestDunnett:
    def test_row_count(self):
        assert build_family("dunnett", 3, 2).r == 4

    def test_univariate_pattern(self):
        cm = build_family("dunnett", 3, 1)
        assert np.array_equal(cm.H, np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]))
        # H mu = 0 iff all means equal: brute force over basis vectors
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.any(cm.H @ e != 0.0)
        assert np.allclose(cm.H @ np.ones(3), 0.0)

    def test_two_nonzeros_per_row(self):
        cm = build_family("dunnett", 4, 3)
        for row in cm.H:
            nz = row[row != 0.0]
            assert len(nz) == 2
            assert set(nz) == {1.0, -1.0}

    def test_rejects_k1(self):
        with pytest.raises(ContrastError):
            build_family("dunnett", 1, 2)


class TestTukey:
    def test_row_count_k4_d2(self):
        assert build_family("tukey", 4, 2).r == 12

    def test_k2_equals_two_sample_up_to_sign(self):
        t = build_family("tukey", 2, 3)
        s = build_family("two_sample", 2, 3)
        assert np.array_equal(t.H, -s.H)

    def test_nullspace_is_constant_vector(self):
        cm = build_family("tukey", 3, 1)
        _, sv, Vt = np.linalg.svd(cm.H)
        assert np.sum(sv > 1e-12) == 2  # rank k-1
        null = Vt[-1]
        assert np.allclose(np.abs(null), 1.0 / np.sqrt(3.0), atol=1e-12)


class TestGrandMean:
    def test_k2_d1_rows(self):
        cm = build_family("grand_mean", 2, 1)
        assert np.allclose(cm.H, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14)

    def test_rows_sum_to_zero(self):
        cm = build_family("grand_mean", 4, 3)
        assert np.allclose(cm.H.sum(axis=1), 0.0, atol=1e-12)

    def test_constant_vector_in_nullspace(self):
        cm = build_family("grand_mean", 3, 2)
        assert np.allclose(cm.H @ np.full(6, 3.7), 0.0, atol=1e-12)


class TestFamilyProperties:
    @pytest.mark.parametrize("family,k", [("dunnett", 3), ("tukey", 4), ("grand_mean", 3)])
    def test_equal_means_in_nullspace(self, family, k):
        d = 2
        cm = build_family(family, k, d)
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu_one = rng.standard_normal(d)
            mu = np.tile(mu_one, k)
            assert np.max(np.abs(cm.H @ mu)) < 1e-12

    @pytest.mark.parametrize(
        "family,k,d",
        [("two_sample", 2, 3), ("dunnett", 4, 2), ("tukey", 3, 3), ("grand_mean", 3, 2)],
    )
    def test_kronecker_structure(self, family, k, d):
        cm = build_family(family, k, d)
        H_u = cm.H[::d, ::d]
        assert np.allclose(cm.H, np.kron(H_u, np.eye(d)), atol=0)

    @pytest.mark.parametrize("family", ["dunnett", "tukey", "grand_mean"])
    def test_one_group_rejected(self, family):
        with pytest.raises(ContrastError, match="contrasts require k>=2 groups, got k=1"):
            build_family(family, 1, 2)

    @pytest.mark.parametrize("d", [0, -1])
    def test_fewer_than_one_outcome_component_rejected(self, d):
        with pytest.raises(ContrastError) as info:
            build_family("tukey", 3, d)
        assert str(info.value) == f"contrasts require d>=1 outcome components, got d={d}"

    def test_wrong_number_of_names_rejected(self):
        with pytest.raises(ContrastError, match="expected 3 group names, got 2"):
            build_family("dunnett", 3, 2, group_names=["a", "b"])
        with pytest.raises(ContrastError, match="expected 2 outcome names, got 1"):
            build_family("tukey", 3, 2, outcome_names=["y"])

    def test_unknown_family(self):
        with pytest.raises(ContrastError, match="unknown contrast family"):
            build_family("williams", 3, 2)

    @pytest.mark.parametrize("family, k, d, message", [
        ("dunnett", 3.0, 2, "k must be an integer, got 3.0"),
        ("tukey", 3, 2.0, "d must be an integer, got 2.0"),
        ("dunnett", True, 2, "k must be an integer, got True"),
        (["x"], 3, 2, "unknown contrast family ['x']"),
    ])
    def test_argument_types_checked(self, family, k, d, message):
        with pytest.raises(ContrastError) as info:
            build_family(family, k, d)
        assert str(info.value) == message

    @pytest.mark.parametrize("family, k, d, message", [
        ("two_sample", 2, 2.5, "d must be an integer, got 2.5"),
        ("two_sample", 2.0, 2, "k must be an integer, got 2.0"),
        ("dunnett", 3.0, 2, "k must be an integer, got 3.0"),
        ("tukey", 3, 2.0, "d must be an integer, got 2.0"),
        ("grand_mean", True, 2, "k must be an integer, got True"),
        ("grand_mean", 3, "2", "d must be an integer, got '2'"),
    ])
    def test_builders_check_their_integers(self, family, k, d, message):
        with pytest.raises(ContrastError) as info:
            build_family(family, k, d)
        assert str(info.value) == message

    @pytest.mark.parametrize("family, k", [("two_sample", 2)] + [
        (family, k) for family in ("dunnett", "tukey", "grand_mean") for k in range(2, 6)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_are_contrasts_without_negative_zeros(self, family, k, d):
        """Every row sums to zero, and no entry is -0.0, which prints as -0.0000."""
        H = build_family(family, k, d).H
        assert np.allclose(H.sum(axis=1), 0.0, atol=1e-12)
        assert not np.any(np.signbit(H) & (H == 0.0))

    def test_numpy_integers_accepted(self):
        cm = build_family("tukey", np.int64(3), np.int32(2))
        expected = build_family("tukey", 3, 2)
        assert cm.labels == expected.labels
        assert cm.H.tobytes() == expected.H.tobytes()


class TestCustom:
    def test_valid_row_accepted(self):
        cm = ContrastMatrix([[1.0, 0.0, -1.0, 0.0]], labels=["x"])
        assert cm.r == 1

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ContrastError, match="^row 'contrast 1' is not a contrast"):
            ContrastMatrix([[1.0, 0.0, 0.0, 0.0]])

    def test_row_sum_tolerance_edge(self):
        """A row sum of exactly ROW_SUM_TOL times max(1, scale) is a contrast;
        one float more is not."""
        assert ContrastMatrix([[1.0, -1.0, ROW_SUM_TOL]]).r == 1
        with pytest.raises(ContrastError, match="^row 'contrast 1' is not a contrast"):
            ContrastMatrix([[1.0, -1.0, np.nextafter(ROW_SUM_TOL, 1.0)]])

    def test_names_offending_row(self):
        with pytest.raises(ContrastError, match="^row 'second' is not a contrast"):
            ContrastMatrix([[1.0, -1.0], [1.0, 1.0]], labels=["first", "second"])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContrastError):
            ContrastMatrix(np.empty((0, 4)))

    @pytest.mark.parametrize("kwargs", [{}, {"labels": []}])
    def test_rows_without_labels_are_numbered(self, kwargs):
        cm = ContrastMatrix([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], **kwargs)
        assert cm.labels == ("contrast 1", "contrast 2")

    def test_one_label_per_row(self):
        with pytest.raises(ContrastError, match="^expected 2 labels, got 1$"):
            ContrastMatrix(H=np.array([[1.0, -1.0], [-1.0, 1.0]]), labels=("a",))

    def test_three_dimensional_matrix_rejected(self, hrv_path):
        """A 3-d H is a ContrastError, not numpy's einsum error inside run_mctp."""
        H3 = np.array([[[1.0, -1.0], [0.0, 0.0]]])
        with pytest.raises(ContrastError, match="must be 2-d with at least one row"):
            ContrastMatrix(H3)
        ds = load_csv(hrv_path, CsvSchema(group="group", outcomes=("SDNN",)))
        with pytest.raises(ContrastError, match="must be 2-d with at least one row"):
            run_mctp(ds, ContrastMatrix(H3), BootstrapConfig("wild", 20, 1), 0.05)

    def test_zero_row_rejected(self):
        with pytest.raises(ContrastError, match="^row 'contrast 1' is all-zero$"):
            ContrastMatrix([[0.0, 0.0]])

    @pytest.mark.parametrize("row", [[1.0, float("nan")], [float("inf"), -1.0]])
    def test_non_finite_coefficient_rejected(self, row):
        with pytest.raises(ContrastError, match="^row 'contrast 2' has a non-finite entry$"):
            ContrastMatrix([[1.0, -1.0], row])


class TestFromCsv:
    def test_roundtrip_with_labels(self, tmp_path):
        path = tmp_path / "contrasts.csv"
        path.write_text("label,c1,c2,c3,c4\nfirst,1,-1,0,0\nsecond,0,0,1,-1\n")
        cm = from_csv(str(path), k=2, d=2)
        assert cm.labels == ("first", "second")
        assert np.array_equal(cm.H, np.array([[1, -1, 0, 0], [0, 0, 1, -1]], dtype=float))

    def test_utf8_bom_keeps_the_label_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"label,c1,c2\nfirst,1,-1\n")
        cm = from_csv(str(path), k=2, d=1)
        assert cm.labels == ("first",)
        assert np.array_equal(cm.H, [[1.0, -1.0]])

    def test_bytes_that_are_not_utf8_are_a_contrast_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("label,c1,c2\nd\u00e9j\u00e0,1,-1\n".encode("latin-1"))
        with pytest.raises(ContrastError, match=(
                f"^contrast file {re.escape(str(path))} is not UTF-8 at byte 13$")):
            from_csv(str(path), k=2, d=1)

    def test_ragged_row_counts_its_fields(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("c1,c2\n1,-1\n\n1,-1,0\n")
        with pytest.raises(ContrastError, match=(
                "^inconsistent row length at contrast row 3: expected 2 fields, "
                "got 3$")):
            from_csv(str(path), k=2, d=1)

    @pytest.mark.parametrize("cell, message", [
        ("", "missing value in column 'c2' at contrast row 3"),
        (" x ", "non-numeric cell 'x' in column 'c2' at contrast row 3"),
        ("inf", "non-finite value 'inf' in column 'c2' at contrast row 3"),
    ], ids=["empty", "x", "inf"])
    def test_cells_are_read_as_data_cells(self, tmp_path, cell, message):
        """A coefficient cell is named by its column and row, as a data file's cell is."""
        path = tmp_path / "cells.csv"
        path.write_text(f"label,c1,c2\nfirst,1,-1\n\nsecond,-1,{cell}\n")
        with pytest.raises(ContrastError) as info:
            from_csv(str(path), k=2, d=1)
        assert str(info.value) == message

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c1,c2\n1,-1\n")
        with pytest.raises(ContrastError, match="expected k\\*d"):
            from_csv(str(path), k=2, d=2)

    def test_non_contrast_row_named(self, tmp_path):
        """A blank line counts as a file row in the default label, in the
        matrix's error as in a cell's error."""
        path = tmp_path / "bad2.csv"
        path.write_text("c1,c2\n1,-1\n\n1,1\n")
        with pytest.raises(ContrastError, match="^row 'contrast 3' is not a contrast: "
                                                "coefficients sum to 2, expected 0$"):
            from_csv(str(path), k=2, d=1)
