"""Grouped multivariate observations with per-subject covariates.

A dataset holds k >= 2 groups of d-dimensional outcomes together with c >= 0
numeric covariates per subject.  Rows are stored contiguously per group, in
group order, so that group-wise computations are plain index ranges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for :func:`load_csv`.

    Parameters
    ----------
    group : str
        Name of the column holding the group label.
    outcomes : sequence of str
        Names of the d outcome columns, in the order they should appear
        in the outcome matrix.
    covariates : sequence of str
        Names of the c covariate columns (may be empty).
    """

    group: str
    outcomes: tuple[str, ...]
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.outcomes:
            raise DataError("schema must declare at least one outcome column")
        names = [self.group, *self.outcomes, *self.covariates]
        if len(set(names)) != len(names):
            raise DataError("schema columns must be distinct")


@dataclass(frozen=True)
class Dataset:
    """Immutable grouped sample.

    Attributes
    ----------
    groups : tuple of str
        Group labels in storage order (k entries).
    n_i : tuple of int
        Per-group sample sizes.
    Y : ndarray, shape (n, d)
        Outcomes, rows sorted by group.
    Z : ndarray, shape (n, c)
        Covariates, same row order as Y; c may be 0.
    row_group : ndarray, shape (n,)
        Group index of each row (nondecreasing).
    source_rows : ndarray or None
        For CSV-loaded data, the original 0-based data-row index of each
        stored row, for reporting back in file order.
    """

    groups: tuple[str, ...]
    n_i: tuple[int, ...]
    Y: np.ndarray
    Z: np.ndarray
    row_group: np.ndarray
    outcome_names: tuple[str, ...] = ()
    covariate_names: tuple[str, ...] = ()
    source_rows: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "n_i", tuple(int(m) for m in self.n_i))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=float))
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z.reshape(len(Z), 0) if Z.size == 0 else Z.reshape(-1, 1)
        Z = np.ascontiguousarray(Z)
        row_group = np.ascontiguousarray(np.asarray(self.row_group, dtype=np.intp))
        if Y.ndim != 2 or Y.shape[1] < 1:
            raise DataError("Y must be a 2-d matrix with at least one column")
        k = len(self.groups)
        if k < 2:
            raise DataError("k >= 2 required")
        if len(self.n_i) != k:
            raise DataError("groups and n_i must have the same length")
        if any(m < 1 for m in self.n_i):
            raise DataError("every group must contain at least one row")
        n = sum(self.n_i)
        if Y.shape[0] != n or Z.shape[0] != n or row_group.shape[0] != n:
            raise DataError("row counts of Y, Z and row_group must equal sum(n_i)")
        expected = np.repeat(np.arange(k), self.n_i)
        if not np.array_equal(row_group, expected):
            raise DataError("rows must be contiguous per group, in group order")
        if not np.all(np.isfinite(Y)) or not np.all(np.isfinite(Z)):
            raise DataError("non-finite values in Y or Z")
        if not self.outcome_names:
            object.__setattr__(
                self, "outcome_names", tuple(f"Y{j + 1}" for j in range(Y.shape[1]))
            )
        if not self.covariate_names and Z.shape[1]:
            object.__setattr__(
                self, "covariate_names", tuple(f"Z{j + 1}" for j in range(Z.shape[1]))
            )
        object.__setattr__(self, "outcome_names", tuple(self.outcome_names))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        if len(self.outcome_names) != Y.shape[1]:
            raise DataError("outcome_names length must equal d")
        if len(self.covariate_names) != Z.shape[1]:
            raise DataError("covariate_names length must equal c")
        for arr in (Y, Z, row_group):
            arr.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "row_group", row_group)

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def d(self) -> int:
        return self.Y.shape[1]

    @property
    def c(self) -> int:
        return self.Z.shape[1]

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @classmethod
    def from_group_blocks(
        cls,
        groups,
        Y_blocks,
        Z_blocks=None,
        outcome_names=(),
        covariate_names=(),
    ) -> "Dataset":
        """Assemble a dataset from per-group outcome (and covariate) blocks."""
        groups = tuple(str(g) for g in groups)
        Y_blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in Y_blocks]
        n_i = tuple(b.shape[0] for b in Y_blocks)
        Y = np.vstack(Y_blocks)
        if Z_blocks is None:
            Z = np.empty((Y.shape[0], 0))
        else:
            Z = np.vstack([np.atleast_2d(np.asarray(b, dtype=float)) for b in Z_blocks])
        row_group = np.repeat(np.arange(len(groups)), n_i)
        return cls(
            groups=groups,
            n_i=n_i,
            Y=Y,
            Z=Z,
            row_group=row_group,
            outcome_names=tuple(outcome_names),
            covariate_names=tuple(covariate_names),
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: fatal errors and advisory warnings."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the dataset is admissible for fitting."""
        return not self.errors


def _parse_cell(raw: str, column: str, line_no: int) -> float:
    text = raw.strip()
    if text == "":
        raise DataError(f"missing value in column '{column}' at data row {line_no}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-numeric cell '{text}' in column '{column}' at data row {line_no}"
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"missing value (non-finite) in column '{column}' at data row {line_no}"
        )
    return value


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a dataset from a UTF-8 CSV file with a header row.

    Rows are regrouped so that each group's rows are contiguous; groups are
    ordered by first appearance in the file.  The original data-row index of
    each stored row is kept in ``source_rows``.

    Raises
    ------
    DataError
        On a missing column, a non-numeric or empty cell, an inconsistent
        row length, an empty group label, or fewer than two groups.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
        col_idx = {}
        for name in (schema.group, *schema.outcomes, *schema.covariates):
            if name not in header:
                raise DataError(f"missing column '{name}' in {path}")
            col_idx[name] = header.index(name)

        labels: list[str] = []
        rows_y: list[list[float]] = []
        rows_z: list[list[float]] = []
        for line_no, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"inconsistent row length at data row {line_no}: "
                    f"expected {len(header)} fields, got {len(row)}"
                )
            label = row[col_idx[schema.group]].strip()
            if label == "":
                raise DataError(f"empty group label at data row {line_no}")
            labels.append(label)
            rows_y.append(
                [_parse_cell(row[col_idx[c]], c, line_no) for c in schema.outcomes]
            )
            rows_z.append(
                [_parse_cell(row[col_idx[c]], c, line_no) for c in schema.covariates]
            )

    if not labels:
        raise DataError(f"no data rows in {path}")
    groups = list(dict.fromkeys(labels))  # first-appearance order
    if len(groups) < 2:
        raise DataError("k >= 2 required: found a single group")

    order = np.argsort([groups.index(lbl) for lbl in labels], kind="stable")
    Y = np.asarray(rows_y, dtype=float)[order]
    Z = np.asarray(rows_z, dtype=float).reshape(len(labels), len(schema.covariates))[order]
    sorted_labels = [labels[i] for i in order]
    n_i = tuple(sorted_labels.count(g) for g in groups)
    return Dataset(
        groups=tuple(groups),
        n_i=n_i,
        Y=Y,
        Z=Z,
        row_group=np.repeat(np.arange(len(groups)), n_i),
        outcome_names=schema.outcomes,
        covariate_names=schema.covariates,
        source_rows=np.asarray(order, dtype=np.intp),
    )


def validate(ds: Dataset) -> ValidationReport:
    """Check admissibility of a dataset for the covariance-adjusted fit.

    Errors (fatal): rank deficiency of the combined design
    [group indicators | covariates].  Warnings (advisory): an outcome
    component that is constant within a group, and groups too small for
    the group-wise covariance divisor n_i - c - 1.
    """
    errors: list[str] = []
    warnings: list[str] = []

    X = np.hstack([_group_indicators(ds), ds.Z])
    sv = np.linalg.svd(X, compute_uv=False)
    tol = sv[0] * max(ds.n, ds.k + ds.c) * np.finfo(float).eps if sv.size else 0.0
    rank = int(np.sum(sv > tol))
    full = ds.k + ds.c
    if rank < full:
        errors.append(
            f"rank deficiency: design [group indicators | covariates] has rank "
            f"{rank} < {full}; covariate columns must be linearly independent of "
            f"each other and of the group indicators"
        )

    for i, sl in enumerate(group_slices(ds.n_i)):
        block = ds.Y[sl]
        for ell in range(ds.d):
            if np.ptp(block[:, ell]) == 0.0:
                warnings.append(
                    f"zero within-group variance in component {ell + 1} "
                    f"('{ds.outcome_names[ell]}') of group {i + 1} "
                    f"('{ds.groups[i]}')"
                )

    for i, m in enumerate(ds.n_i):
        if m <= ds.c + 1:
            warnings.append(
                f"n_i <= c+1 in group {i + 1} ('{ds.groups[i]}'): "
                f"n_i={m}, c={ds.c}; parametric bootstrap divisor n_i-c-1 <= 0"
            )

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def _group_indicators(ds: Dataset) -> np.ndarray:
    M = np.zeros((ds.n, ds.k))
    M[np.arange(ds.n), ds.row_group] = 1.0
    return M


def group_slices(n_i) -> list[slice]:
    """Row slice of each group, in order, for contiguous groups of sizes n_i."""
    offsets = np.cumsum([0, *n_i]).tolist()
    return [slice(a, b) for a, b in zip(offsets, offsets[1:])]
