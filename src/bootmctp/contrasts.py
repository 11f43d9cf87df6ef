"""Contrast matrices for the supported multiple testing problems.

Every row is a contrast vector over the kd adjusted means (group-major
layout: group index varies slowest, outcome component fastest).  Family
builders produce H_u kron I_d where H_u is the univariate comparison
pattern; comparisons are ordered with outcome components varying fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _integer, _read_csv
from .exceptions import ContrastError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ContrastMatrix:
    """Validated r x (k*d) contrast matrix; unlabelled rows are named contrast 1..r."""

    H: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if H.ndim != 2 or H.size == 0:
            raise ContrastError("contrast matrix must be 2-d with at least one row")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "labels", tuple(self.labels)
                           or tuple(f"contrast {s + 1}" for s in range(H.shape[0])))
        if len(self.labels) != H.shape[0]:
            raise ContrastError("one label per contrast row required")
        for s, row in enumerate(H):
            if not np.all(np.isfinite(row)):
                raise ContrastError(f"contrast row {s + 1} has a non-finite entry")
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


def _family(H_u, row_names, d: int, outcome_names) -> ContrastMatrix:
    """H_u kron I_d, its rows labelled "<row name>, <outcome>", outcome fastest."""
    o = _names("outcome", d, outcome_names)
    H = np.kron(np.asarray(H_u, dtype=float), np.eye(d)) + 0.0  # + 0.0 normalizes -0.0
    return ContrastMatrix(H=H, labels=tuple(f"{row}, {out}" for row in row_names
                                            for out in o))


def _groups(what: str, k, d, group_names):
    k, d = _integer(k, "k", ContrastError), _integer(d, "d", ContrastError)
    if k < 2:
        raise ContrastError(f"{what} contrasts require k>=2 groups, got k={k}")
    return k, d, _names("group", k, group_names)


def two_sample(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Component-wise comparison of two groups: H = (1, -1) kron I_d."""
    k, d = _integer(k, "k", ContrastError), _integer(d, "d", ContrastError)
    if k != 2:
        raise ContrastError(f"two-sample contrasts require k=2 groups, got k={k}")
    g = _names("group", 2, group_names)
    return _family([[1.0, -1.0]], [f"{g[0]} - {g[1]}"], d, outcome_names)


def dunnett(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Many-to-one comparisons of groups 2..k against group 1, per component."""
    k, d, g = _groups("many-to-one", k, d, group_names)
    e = np.eye(k)
    return _family([e[i] - e[0] for i in range(1, k)],
                   [f"{g[i]} - {g[0]}" for i in range(1, k)], d, outcome_names)


def tukey(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """All pairwise comparisons (later minus earlier group), per component."""
    k, d, g = _groups("all-pair", k, d, group_names)
    e = np.eye(k)
    pairs = [(i1, i2) for i1 in range(k) for i2 in range(i1 + 1, k)]
    return _family([e[i2] - e[i1] for i1, i2 in pairs],
                   [f"{g[i2]} - {g[i1]}" for i1, i2 in pairs], d, outcome_names)


def grand_mean(k: int, d: int, group_names=None, outcome_names=None) -> ContrastMatrix:
    """Comparison of each group with the mean over groups, per component."""
    k, d, g = _groups("grand-mean", k, d, group_names)
    return _family(np.eye(k) - np.full((k, k), 1.0 / k),
                   [f"{g[i]} - grand mean" for i in range(k)], d, outcome_names)


def from_csv(path, k: int, d: int) -> ContrastMatrix:
    """Load custom contrasts from CSV: k*d numeric columns, optional 'label'.

    The file is read as :func:`~bootmctp.dataset.load_csv` reads data: UTF-8
    with or without a BOM, a stripped header, and blank rows skipped.
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
    H = []
    for line_no, row in rows:
        try:
            H.append([float(row[j]) for j in coef_cols])
        except ValueError:
            raise ContrastError(
                f"non-numeric coefficient at contrast row {line_no}"
            ) from None
    labels = [row[label_col].strip() if label_col is not None else f"contrast {line_no}"
              for line_no, row in rows]
    return ContrastMatrix(H=np.asarray(H), labels=tuple(labels))


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
    if not isinstance(family, str) or family not in builders:
        raise ContrastError(f"unknown contrast family {family!r}")
    return builders[family](k, d, group_names=group_names, outcome_names=outcome_names)
