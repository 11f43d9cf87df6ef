"""Contrast matrices for the supported multiple testing problems.

Every row is a contrast vector over the kd adjusted means (group-major
layout: group index varies slowest, outcome component fastest).
:func:`build_family` produces H_u kron I_d, where H_u is a family's
univariate comparison pattern; its rows are ordered with outcome components
varying fastest.  Labels, group and outcome names and the numeric cells of
a contrast file follow the rules that :mod:`bootmctp.dataset` owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _integer, _names, _parse_cell, _read_csv, _real_array
from .exceptions import ContrastError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ContrastMatrix:
    """Validated r x (k*d) contrast matrix; rows are named by label, contrast 1..r by default."""

    H: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        H = np.atleast_2d(_real_array(self.H, "contrast matrix", ContrastError))
        if H.ndim != 2 or H.size == 0:
            raise ContrastError("contrast matrix must be 2-d with at least one row")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "labels", _names(self.labels, "labels", ContrastError,
                                                  H.shape[0], "contrast "))
        for label, row in zip(self.labels, H):
            if not np.all(np.isfinite(row)):
                raise ContrastError(f"row '{label}' has a non-finite entry")
            scale = np.max(np.abs(row))
            if scale == 0.0:
                raise ContrastError(f"row '{label}' is all-zero")
            if abs(row.sum()) > ROW_SUM_TOL * max(1.0, scale):
                raise ContrastError(f"row '{label}' is not a contrast: coefficients sum "
                                    f"to {row.sum():.3g}, expected 0")

    @property
    def r(self) -> int:
        return self.H.shape[0]


def from_csv(path, k: int, d: int) -> ContrastMatrix:
    """Load custom contrasts from CSV: k*d numeric columns, optional 'label'.

    The file is read as :func:`~bootmctp.dataset.load_csv` reads data: UTF-8
    with or without a BOM, a stripped header, blank rows skipped, and an
    empty, non-numeric or non-finite cell named by its column and row.
    The label column is recognized by the header name 'label' (case
    insensitive); all remaining columns are contrast coefficients in
    group-major order.
    """
    header, rows = _read_csv(path, ContrastError, "contrast")
    label_col = next(
        (j for j, h in enumerate(header) if h.lower() == "label"), None
    )
    coef_cols = [j for j in range(len(header)) if j != label_col]
    if len(coef_cols) != k * d:
        raise ContrastError(
            f"contrast file has {len(coef_cols)} coefficient columns, "
            f"expected k*d = {k * d}"
        )
    H = [[_parse_cell(row[j], header[j], line_no, ContrastError, "contrast") for j in coef_cols]
         for line_no, row in rows]
    labels = [row[label_col].strip() if label_col is not None else f"contrast {line_no}"
              for line_no, row in rows]
    return ContrastMatrix(H=H, labels=tuple(labels))


# Family name: (the word its k error uses, its rows as pairs of (univariate
# row, comparison name) from the k x k identity e and the group names g).
_FAMILIES = {
    "two_sample": ("two-sample", lambda e, g: [(e[0] - e[1], f"{g[0]} - {g[1]}")]),
    "dunnett": ("many-to-one", lambda e, g: [(e[i] - e[0], f"{g[i]} - {g[0]}")
                                             for i in range(1, len(e))]),
    "tukey": ("all-pair", lambda e, g: [(e[j] - e[i], f"{g[j]} - {g[i]}")
                                        for i in range(len(e)) for j in range(i + 1, len(e))]),
    "grand_mean": ("grand-mean", lambda e, g: [(e[i] - 1.0 / len(e), f"{g[i]} - grand mean")
                                               for i in range(len(e))]),
}


def build_family(
    family: str, k: int, d: int, group_names=None, outcome_names=None
) -> ContrastMatrix:
    """One family's comparisons of k groups, per outcome component: H_u kron I_d.

    'two_sample' is group 1 - group 2 (k = 2), 'dunnett' groups 2..k - group 1,
    'tukey' each later group - each earlier group, and 'grand_mean' each group
    - the mean over groups.  Rows are labelled "<comparison>, <outcome>".
    """
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ContrastError(f"unknown contrast family {family!r}")
    k, d = _integer(k, "k", ContrastError), _integer(d, "d", ContrastError)
    word, pattern = _FAMILIES[family]
    if k < 2 or family == "two_sample" and k != 2:
        need = "k=2" if family == "two_sample" else "k>=2"
        raise ContrastError(f"{word} contrasts require {need} groups, got k={k}")
    if d < 1:
        raise ContrastError(f"contrasts require d>=1 outcome components, got d={d}")
    g, o = (() if names is None else names for names in (group_names, outcome_names))
    rows = pattern(np.eye(k), _names(g, "group names", ContrastError, k, "group "))
    o = _names(o, "outcome names", ContrastError, d, "outcome ")
    H = np.kron([row for row, _ in rows], np.eye(d)) + 0.0  # + 0.0 normalizes -0.0
    return ContrastMatrix(H=H, labels=tuple(f"{name}, {out}" for _, name in rows for out in o))
