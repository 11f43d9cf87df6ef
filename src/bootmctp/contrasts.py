"""Contrast matrices for the supported multiple testing problems.

Every row is a contrast vector over the kd adjusted means (group-major
layout: group index varies slowest, outcome component fastest).  Family
builders produce H_u kron I_d where H_u is the univariate comparison
pattern; comparisons are ordered with outcome components varying fastest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import ContrastError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ContrastMatrix:
    """Validated r x (k*d) contrast matrix with one label per row."""

    H: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if H.size == 0 or H.shape[0] < 1:
            raise ContrastError("contrast matrix must have at least one row")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != H.shape[0]:
            raise ContrastError("one label per contrast row required")
        for s, row in enumerate(H):
            scale = np.max(np.abs(row))
            if scale == 0.0:
                raise ContrastError(f"contrast row {s + 1} is all-zero")
            if abs(row.sum()) > ROW_SUM_TOL * max(1.0, scale):
                raise ContrastError(
                    f"row {s + 1} is not a contrast: coefficients sum to "
                    f"{row.sum():.3g}, expected 0"
                )
        H.setflags(write=False)

    @property
    def r(self) -> int:
        return self.H.shape[0]


def _names(prefix: str, count: int, given) -> list[str]:
    if given:
        given = [str(g) for g in given]
        if len(given) != count:
            raise ContrastError(f"expected {count} {prefix} names, got {len(given)}")
        return given
    return [f"{prefix} {j + 1}" for j in range(count)]


def _kron_with_identity(H_u: np.ndarray, d: int) -> np.ndarray:
    return np.kron(H_u, np.eye(d)) + 0.0  # adding 0.0 normalizes -0.0 entries


def two_sample(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Component-wise comparison of two groups: H = (1, -1) kron I_d."""
    if k != 2:
        raise ContrastError(f"two-sample contrasts require k=2 groups, got k={k}")
    g = _names("group", 2, group_names)
    o = _names("outcome", d, outcome_names)
    H = _kron_with_identity(np.array([[1.0, -1.0]]), d)
    labels = tuple(f"{g[0]} - {g[1]}, {o[ell]}" for ell in range(d))
    return ContrastMatrix(H=H, labels=labels)


def dunnett(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Many-to-one comparisons of groups 2..k against group 1, per component."""
    if k < 2:
        raise ContrastError(f"many-to-one contrasts require k>=2 groups, got k={k}")
    g = _names("group", k, group_names)
    o = _names("outcome", d, outcome_names)
    H_u = np.zeros((k - 1, k))
    labels = []
    for i in range(1, k):
        H_u[i - 1, 0] = -1.0
        H_u[i - 1, i] = 1.0
        labels.extend(f"{g[i]} - {g[0]}, {o[ell]}" for ell in range(d))
    return ContrastMatrix(H=_kron_with_identity(H_u, d), labels=tuple(labels))


def tukey(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """All pairwise comparisons (later minus earlier group), per component."""
    if k < 2:
        raise ContrastError(f"all-pair contrasts require k>=2 groups, got k={k}")
    g = _names("group", k, group_names)
    o = _names("outcome", d, outcome_names)
    rows = []
    labels = []
    for i1 in range(k):
        for i2 in range(i1 + 1, k):
            row = np.zeros(k)
            row[i1] = -1.0
            row[i2] = 1.0
            rows.append(row)
            labels.extend(f"{g[i2]} - {g[i1]}, {o[ell]}" for ell in range(d))
    return ContrastMatrix(
        H=_kron_with_identity(np.asarray(rows), d), labels=tuple(labels)
    )


def grand_mean(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Comparison of each group with the mean over groups, per component."""
    if k < 2:
        raise ContrastError(f"grand-mean contrasts require k>=2 groups, got k={k}")
    g = _names("group", k, group_names)
    o = _names("outcome", d, outcome_names)
    H_u = np.eye(k) - np.full((k, k), 1.0 / k)
    labels = tuple(
        f"{g[i]} - grand mean, {o[ell]}" for i in range(k) for ell in range(d)
    )
    return ContrastMatrix(H=_kron_with_identity(H_u, d), labels=labels)


def custom(H_raw, labels=None) -> ContrastMatrix:
    """Validate a user-supplied contrast matrix."""
    H = np.atleast_2d(np.asarray(H_raw, dtype=float))
    if labels is None:
        labels = tuple(f"contrast {s + 1}" for s in range(H.shape[0]))
    return ContrastMatrix(H=H, labels=tuple(labels))


def from_csv(path, k: int, d: int) -> ContrastMatrix:
    """Load custom contrasts from CSV: k*d numeric columns, optional 'label'.

    The label column is recognized by the header name 'label' (case
    insensitive); all remaining columns are contrast coefficients in
    group-major order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ContrastError(f"empty contrast file: {path}") from None
        label_col = next(
            (j for j, h in enumerate(header) if h.lower() == "label"), None
        )
        coef_cols = [j for j in range(len(header)) if j != label_col]
        if len(coef_cols) != k * d:
            raise ContrastError(
                f"contrast file has {len(coef_cols)} coefficient columns, "
                f"expected k*d = {k * d}"
            )
        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise ContrastError(
                    f"inconsistent row length at contrast row {line_no}"
                )
            try:
                rows.append([float(row[j]) for j in coef_cols])
            except ValueError:
                raise ContrastError(
                    f"non-numeric coefficient at contrast row {line_no}"
                ) from None
            labels.append(
                row[label_col].strip() if label_col is not None else f"contrast {line_no}"
            )
    if not rows:
        raise ContrastError(f"no contrast rows in {path}")
    return ContrastMatrix(H=np.asarray(rows), labels=tuple(labels))


def build_family(
    family: str, k: int, d: int, group_names=None, outcome_names=None
) -> ContrastMatrix:
    """Dispatch on a family name ('two_sample', 'dunnett', 'tukey', 'grand_mean')."""
    builders = {
        "two_sample": two_sample,
        "dunnett": dunnett,
        "tukey": tukey,
        "grand_mean": grand_mean,
    }
    if family not in builders:
        raise ContrastError(f"unknown contrast family '{family}'")
    return builders[family](k, d, group_names=group_names, outcome_names=outcome_names)
