"""Grouped multivariate observations with per-subject covariates.

A dataset holds k >= 2 groups of d-dimensional outcomes together with c >= 0
numeric covariates per subject.  Rows are stored contiguously per group, in
group order, so that group-wise computations are plain index ranges.  Array
fields are read-only float64 copies, so no caller's array is frozen or shared.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError


def _integer(value, what: str, error: type[Exception]) -> int:
    """`value` as a Python int; raises `error` for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str, error: type[Exception]) -> None:
    """Raises `error` for a bool or a value that is not a Python or numpy real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")


def _sequence(value, what: str, error: type[Exception], of: str, entry=None) -> tuple:
    """`value` as a tuple; raises `error` on a bare str, a non-iterable or an `entry` failure."""
    items = None if isinstance(value, str) or not np.iterable(value) else tuple(value)
    if items is None or entry and not all(map(entry, items)):
        raise error(f"{what} must be a sequence of {of}, got {value!r}")
    return items


def _names(value, what: str, error: type[Exception], count=None, prefix="") -> tuple[str, ...]:
    """`value` as distinct str, `count` of them if given; none given are `prefix`1, 2, ..."""
    names = _sequence(value, what, error, "str", lambda name: isinstance(name, str))
    names = names or tuple(f"{prefix}{j + 1}" for j in range(count or 0))
    if count is not None and len(names) != count:
        raise error(f"expected {count} {what}, got {len(names)}")
    if len(set(names)) != len(names):
        raise error(f"{what} must be distinct, got {names!r}")
    return names


def _real_array(value, what: str, error: type[Exception]) -> np.ndarray:
    """A read-only float64 copy of `value`; raises `error` if ragged or not of real numbers."""
    with contextlib.suppress(ValueError):  # numpy refuses a ragged nesting
        array = np.asarray(value)
        if array.dtype.kind in "iuf":  # not bool, complex, str or object
            array = array.astype(float, order="C")
            array.setflags(write=False)
            return array
    raise error(f"{what} must be a rectangular array of real numbers")


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
        if not isinstance(self.group, str):
            raise DataError(f"schema group must be a str, got {self.group!r}")
        object.__setattr__(self, "outcomes", _names(self.outcomes, "schema outcomes", DataError))
        object.__setattr__(self, "covariates",
                           _names(self.covariates, "schema covariates", DataError))
        if not self.outcomes:
            raise DataError("schema must declare at least one outcome column")
        _names((self.group, *self.outcomes, *self.covariates), "schema columns", DataError)


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
        Outcomes: n_1 rows of group 1, then n_2 of group 2, and so on, as
        :meth:`from_group_blocks` and :func:`load_csv` build them.
    Z : ndarray, shape (n, c)
        Covariates, same row order as Y; c may be 0.
    """

    groups: tuple[str, ...]
    n_i: tuple[int, ...]
    Y: np.ndarray
    Z: np.ndarray
    outcome_names: tuple[str, ...] = ()
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "groups", _names(self.groups, "groups", DataError))
        n_i = _sequence(self.n_i, "n_i", DataError, "integers")
        object.__setattr__(self, "n_i", tuple(_integer(m, "group size", DataError) for m in n_i))
        Y, Z = _real_array(self.Y, "Y", DataError), _real_array(self.Z, "Z", DataError)
        if Y.ndim != 2 or Y.shape[1] < 1:
            raise DataError("Y must be a 2-d matrix with at least one column")
        if Z.ndim != 2:
            raise DataError("Z must be a 2-d matrix (n x c, c may be 0)")
        k = len(self.groups)
        if k < 2:
            raise DataError("k >= 2 required")
        if len(self.n_i) != k:
            raise DataError("groups and n_i must have the same length")
        if any(m < 1 for m in self.n_i):
            raise DataError("every group must contain at least one row")
        n = sum(self.n_i)
        if Y.shape[0] != n or Z.shape[0] != n:
            raise DataError("row counts of Y and Z must equal sum(n_i)")
        if not np.all(np.isfinite(Y)) or not np.all(np.isfinite(Z)):
            raise DataError("non-finite values in Y or Z")
        for field, name, arr in (("outcome_names", "Y", Y), ("covariate_names", "Z", Z)):
            object.__setattr__(self, field, _names(getattr(self, field), field, DataError,
                                                   arr.shape[1], name))
            object.__setattr__(self, name, arr)

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
        """Assemble a dataset from per-group 2-d outcome (and covariate) blocks."""
        Ys = [_real_array(b, "an outcome block", DataError)
              for b in _sequence(Y_blocks, "Y_blocks", DataError, "arrays")]
        Zs = [] if Z_blocks is None else [
            _real_array(b, "a covariate block", DataError)
            for b in _sequence(Z_blocks, "Z_blocks", DataError, "arrays")]
        if any(b.ndim != 2 for b in Ys + Zs):
            raise DataError("outcome and covariate blocks must be 2-d (rows x columns)")
        if len({b.shape[1] for b in Ys}) != 1 or len({b.shape[1] for b in Zs}) > 1:
            raise DataError("need outcome blocks, each kind with one column count")
        if Z_blocks is not None and [len(b) for b in Zs] != [len(b) for b in Ys]:
            raise DataError("each covariate block must have its outcome block's rows")
        n_i, Y = tuple(b.shape[0] for b in Ys), np.vstack(Ys)
        Z = np.empty((Y.shape[0], 0)) if Z_blocks is None else np.vstack(Zs)
        del Ys, Zs  # free the block copies before the constructor copies Y and Z
        return cls(groups, n_i, Y, Z, outcome_names, covariate_names)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: fatal errors and advisory warnings."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the dataset is admissible for fitting."""
        return not self.errors


def _parse_cell(raw: str, column: str, line_no: int, error: type[Exception], what: str) -> float:
    """The finite number in one cell; raises `error`, naming the column and `what` row."""
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        problem = "missing value" if text == "" else f"non-numeric cell '{text}'"
        raise error(f"{problem} in column '{column}' at {what} row {line_no}") from None
    if not np.isfinite(value):
        raise error(f"non-finite value '{text}' in column '{column}' at {what} row {line_no}")
    return value


def _read_text(path, error, what: str) -> str:
    """The text of a UTF-8 file without its BOM, which the offset in `error` counts."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not UTF-8 at byte {exc.start}") from None


def _read_csv(path, error, what: str):
    """The stripped header and the non-blank rows, numbered from 1, of a CSV file.

    Raises `error`, naming `what`, on an empty file, a ragged row or no rows.
    """
    reader = csv.reader(io.StringIO(_read_text(path, error, what), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=1)
                if any(cell.strip() for cell in row)]
    except StopIteration:
        raise error(f"empty {what} file: {path}") from None
    except csv.Error as exc:
        raise error(f"{what} file {path}, line {reader.line_num}: {exc}") from None
    for line_no, row in rows:
        if len(row) != len(header):
            raise error(f"inconsistent row length at {what} row {line_no}: "
                        f"expected {len(header)} fields, got {len(row)}")
    if not rows:
        raise error(f"no {what} rows in {path}")
    return header, rows


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a dataset from a UTF-8 CSV file, BOM optional, with a header row.

    Each group's rows, in file order, form its block for
    :meth:`Dataset.from_group_blocks`, and groups are ordered by first
    appearance in the file.  The file row order is not kept.

    Raises
    ------
    DataError
        On a file that is not UTF-8, a missing or repeated column, a
        non-numeric, empty or non-finite cell, an inconsistent row length,
        an empty group label, or fewer than two groups.
    """
    header, rows = _read_csv(path, DataError, "data")
    columns = (*schema.outcomes, *schema.covariates)
    col_idx = {}
    for name in (schema.group, *columns):
        if name not in header:
            raise DataError(f"missing column '{name}' in {path}")
        if header.count(name) > 1:
            raise DataError(f"repeated column '{name}' in {path}")
        col_idx[name] = header.index(name)

    blocks: dict[str, list[list[float]]] = {}  # groups in first-appearance order
    for line_no, row in rows:
        label = row[col_idx[schema.group]].strip()
        if label == "":
            raise DataError(f"empty group label at data row {line_no}")
        blocks.setdefault(label, []).append(
            [_parse_cell(row[col_idx[c]], c, line_no, DataError, "data") for c in columns])

    cells, d = [np.array(block) for block in blocks.values()], len(schema.outcomes)
    return Dataset.from_group_blocks(tuple(blocks), [b[:, :d] for b in cells],
                                     [b[:, d:] for b in cells], schema.outcomes, schema.covariates)


def validate(ds: Dataset) -> ValidationReport:
    """Check admissibility of a dataset for the covariance-adjusted fit.

    Errors (fatal): rank deficiency of the combined design
    [group indicators | covariates].  Warnings (advisory): an outcome
    component that is constant within a group, groups too small for the
    group-wise covariance divisor n_i - c - 1, and groups of two without
    covariates, whose wild bootstrap residuals vanish for half the sign draws.
    """
    errors: list[str] = []
    warnings: list[str] = []

    rank = np.linalg.matrix_rank(np.hstack([_group_indicators(ds), ds.Z]))
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
        elif m == 2 and ds.c == 0:
            warnings.append(f"n_i=2 and c=0 in group {i + 1} ('{ds.groups[i]}'): its "
                            "residuals are e and -e, so half of the wild bootstrap's "
                            "sign draws give it zero replicate residuals")

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def _group_indicators(ds: Dataset) -> np.ndarray:
    M = np.zeros((ds.n, ds.k))
    for i, sl in enumerate(group_slices(ds.n_i)):
        M[sl, i] = 1.0
    return M


def group_slices(n_i) -> list[slice]:
    """Row slice of each group, in order, for contiguous groups of sizes n_i."""
    offsets = np.cumsum([0, *n_i]).tolist()
    return [slice(a, b) for a, b in zip(offsets, offsets[1:])]
