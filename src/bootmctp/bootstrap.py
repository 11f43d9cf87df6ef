"""Wild and parametric bootstrap of the studentized contrast statistics.

Both schemes resample the response only; the design, its Gram inverse, the
hat-matrix leverages and the leverage weights are fixed.  Each replicate is
refit on that design and studentized by the sandwich's own definition: its
D contracts the covariance estimate's weighted rows ``wU1sq`` with the
replicate's squared residuals, and :func:`covariance.studentize` forms the
statistics, as it does for the observed data.  Every replicate b draws from
its own counter-based substream (seed, b, attempt), so results are
independent of execution order and chunk size, bit for bit.  Replicates
whose studentizer degenerates (zero bootstrap variance for some contrast)
are redrawn from the next attempt substream and counted.

One bootstrap run re-keys a single Philox generator to each replicate's
substream just before that replicate's row of the chunk is drawn (see
``ReplicateStream``), instead of building a generator per replicate.  Wild
signs are read from the raw 64-bit words of the stream: bit 31 of each word
gives one sign and bit 63 the next.  That is the value numpy's
``integers(0, 2)`` returns for the low and then the high 32-bit half of the
word, so the signs equal ``integers(0, 2, size=n) * 2 - 1`` on a fresh
stream.  Parametric normals for a chunk are drawn into one buffer and each
group's covariance root is applied once per chunk.  One bootstrap run
allocates its chunk-sized response buffer and one scratch buffer of the
same size once and reuses them for every chunk, so the large per-chunk
arrays are not freed and faulted back in chunk after chunk.

A chunk of m replicates is stored subject-major, as an (n, m, d) array that
the refit views as (n, q) with q = m*d: all replicates share the design, so
beta = G X' Y*, the fitted values and the diagonal sandwich D are each one
contraction over the leading axis of both operands.  np.einsum with the
default (non-optimized) contraction sums such an index as
``acc += a_i * b_i`` in index order, for every q including q = 1, so each
replicate's arithmetic does not depend on the chunk size and recomputing a
single replicate is bitwise identical to batched execution
(``tests/oracles.sequential_refit`` pins the order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrasts import ContrastMatrix
from .covariance import (
    CovarianceEstimate,
    _sandwich_diagonal,
    check_group_divisors,
    psd_sqrt,
    studentize,
)
from .dataset import group_slices
from .design import DesignMatrices, FitResult
from .exceptions import EstimationError
from ._rng import ReplicateStream

CHUNK = 256
MAX_ATTEMPTS = 64
INVALID_WARN_FRACTION = 0.001
INVALID_ABORT_FRACTION = 0.01

KINDS = ("wild", "parametric")


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, scheme and seed for one bootstrap run."""

    kind: str
    B: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise EstimationError(f"unknown bootstrap kind '{self.kind}'")
        if self.B < 1:
            raise EstimationError("bootstrap replicate count B must be >= 1")


@dataclass(frozen=True)
class BootstrapDraws:
    """B x r matrix of bootstrap statistics, one row per replicate.

    ``sorted_abs`` is |A_star| with each column sorted ascending, made once
    on construction: the level adjustment, the quantiles and the p-values
    in ``mctp`` all read their ranks from it.
    """

    A_star: np.ndarray
    kind: str
    seed: int
    invalid_redraws: int = 0
    warnings: tuple[str, ...] = ()
    sorted_abs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A_star.setflags(write=False)
        if not np.all(np.isfinite(self.A_star)):
            raise EstimationError("bootstrap statistics contain non-finite values")
        ranked = np.sort(np.abs(self.A_star), axis=0)
        ranked.setflags(write=False)
        object.__setattr__(self, "sorted_abs", ranked)

    @property
    def B(self) -> int:
        return self.A_star.shape[0]

    @property
    def r(self) -> int:
        return self.A_star.shape[1]


def _wild_signs(rngs, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rademacher signs, one row of n per stream in the sized iterable `rngs`.

    Row j is ``rng.integers(0, 2, size=n) * 2.0 - 1.0`` for a fresh stream,
    read from ``random_raw(ceil(n/2))``: numpy maps each 32-bit draw to
    {0, 1} by its top bit and splits each 64-bit word low half first, so
    bits 31 and 63 of each word give two consecutive signs.  The m x n
    signs are written to `out` when it is given.
    """
    m, words_per_row = len(rngs), (n + 1) // 2
    words = np.empty((m, words_per_row), dtype="<u8")
    for j, rng in enumerate(rngs):
        words[j] = rng.bit_generator.random_raw(words_per_row)
    halves = words.view("<u4")[:, :n]  # low half of each word first
    t = np.empty((m, n)) if out is None else out
    np.right_shift(halves, 31, out=t)
    t *= 2.0
    t -= 1.0
    return t


class _Engine:
    """Precomputed refit state shared by all replicates of one bootstrap.

    :meth:`draw` is the scheme's response draw for one chunk.  A chunk of m
    replicate responses is stored subject-major, as an (n, m, d) array that
    the refit views as (n, q) with q = m*d, so each refit contraction runs
    over the leading axis of both operands.
    """

    def __init__(self, kind: str, dm: DesignMatrices, fit: FitResult,
                 cov: CovarianceEstimate, H: np.ndarray):
        self.n, self.k, self.d = dm.n, dm.k, dm.d
        self.XG = np.ascontiguousarray((dm.gram_inv @ dm.X.T).T)
        self.Xt = np.ascontiguousarray(dm.X.T)
        self.wU1sq = cov.wU1sq
        self.H = H
        self.kind = kind
        self._work = np.empty(0)
        if kind == "wild":
            self.residuals = fit.residuals
            self.wild_scale = 1.0 / np.sqrt(1.0 - dm.leverages)
        else:
            if cov.group_sigmas is None:
                check_group_divisors(dm.n_i, dm.c)
                raise EstimationError(
                    "parametric bootstrap needs the group covariances, "
                    "which the covariance estimate does not carry"
                )
            self.group_slices = group_slices(dm.n_i)
            self.roots = [psd_sqrt(S) for S in cov.group_sigmas]

    def draw(self, rngs, out: np.ndarray) -> np.ndarray:
        """Draw one chunk of responses into `out`; returns `out`."""
        if self.kind == "wild":
            return self._draw_wild(rngs, out)
        return self._draw_parametric(rngs, out)

    def _scratch(self, size: int) -> np.ndarray:
        """A flat buffer of `size` floats, reused by every later chunk."""
        if self._work.size < size:
            self._work = np.empty(size)
        return self._work[:size]

    def _draw_wild(self, rngs, out: np.ndarray) -> np.ndarray:
        """Write wild-multiplier responses for one chunk into `out`.

        `rngs` is a sized iterable of fresh streams, one per replicate,
        consumed in order (see :func:`_wild_signs`).  Each subject's
        residual vector is multiplied by one sign shared across the outcome
        components and rescaled by 1/sqrt(1-p).  Returns `out`, the
        (n, m, d) responses.
        """
        m, n = len(rngs), self.n
        t = _wild_signs(rngs, n, out=self._scratch(m * n).reshape(m, n))
        t *= self.wild_scale
        return np.multiply(t.T[:, :, None], self.residuals[:, None, :], out=out)

    def _draw_parametric(self, rngs, out: np.ndarray) -> np.ndarray:
        """Write group-wise zero-mean normal responses for one chunk into `out`.

        `rngs` is a sized iterable of streams, one per replicate, consumed
        in order; each fills its replicate's n x d standard normals in an
        (m, n, d) scratch buffer.  Each group's symmetric PSD covariance
        root (singular covariances allowed) multiplies the group's normals
        of all replicates in one matmul, whose (m, n_g, d) output is a
        transposed view of the chunk.  Returns `out`, the (n, m, d)
        responses.
        """
        m, n, d = len(rngs), self.n, self.d
        normals = self._scratch(m * n * d).reshape(m, n, d)
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=normals[j])
        for sl, L in zip(self.group_slices, self.roots):
            np.matmul(normals[:, sl], L, out=out[sl].transpose(1, 0, 2))
        return out

    def statistics(self, Ystar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refit an (n, m, d) chunk of responses; return (statistics, validity).

        Each refit einsum contracts the leading axis of both operands,
        which numpy sums as ``acc += a_i * b_i`` in index order for every
        chunk size (``tests/oracles.sequential_refit`` pins this).  A
        replicate is valid when every contrast's h'Dh is positive and every
        statistic finite.
        """
        n, k, d = self.n, self.k, self.d
        m = Ystar.shape[1]
        Yq = Ystar.reshape(n, m * d)
        beta = np.einsum("np,nq->pq", self.XG, Yq)
        # Fitted values, turned into squared residuals in the same buffer.
        resid_sq = self._scratch(n * m * d).reshape(n, m * d)
        np.einsum("pn,pq->nq", self.Xt, beta, out=resid_sq)
        np.subtract(Yq, resid_sq, out=resid_sq)
        np.square(resid_sq, out=resid_sq)
        D = _sandwich_diagonal(self.wU1sq, resid_sq)
        A, hDh = studentize(_replicate_rows(beta[:k], m, d),
                            _replicate_rows(D, m, d), self.H, n)
        valid = (hDh > 0.0).all(axis=1) & np.isfinite(A).all(axis=1)
        return A, valid


def _replicate_rows(V: np.ndarray, m: int, d: int) -> np.ndarray:
    """(k, m*d) columns of a chunk as a C-contiguous (m, k*d) array."""
    k = V.shape[0]
    return V.reshape(k, m, d).transpose(1, 0, 2).reshape(m, k * d)


class _Rekeyed:
    """The streams of one chunk's (replicate, attempt) pairs, made lazily.

    Iterating re-keys the shared generator to each pair's substream just
    before it is handed out, so each stream is valid only until the next
    one is taken.
    """

    def __init__(self, stream: ReplicateStream, batch):
        self.stream = stream
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self):
        return (self.stream.reset(b, attempt) for b, attempt in self.batch)


def run_bootstrap(cfg: BootstrapConfig, dm: DesignMatrices, fit: FitResult,
                  cov: CovarianceEstimate, contrasts: ContrastMatrix) -> BootstrapDraws:
    """Draw B bootstrap replicates of the studentized contrast statistics.

    All r statistics of one row come from the same resampled response.
    Invalid replicates (degenerate studentizer) are redrawn from the next
    attempt substream; a redraw share above 0.1% of B is reported as a
    warning and above 1% the bootstrap distribution is declared degenerate.

    Returns
    -------
    BootstrapDraws
        B x r statistics, deterministic given (kind, B, seed).
    """
    if contrasts.H.shape[1] != dm.k * dm.d:
        raise EstimationError(
            f"contrast matrix has {contrasts.H.shape[1]} columns, "
            f"expected k*d = {dm.k * dm.d}"
        )
    engine = _Engine(cfg.kind, dm, fit, cov, contrasts.H)
    B = cfg.B
    r = contrasts.H.shape[0]
    A_star = np.empty((B, r))
    abort_count = INVALID_ABORT_FRACTION * B
    invalid_total = 0
    stream = ReplicateStream(cfg.seed)
    Y = np.empty(dm.n * min(B, CHUNK) * dm.d)
    pending = [(b, 0) for b in range(B)]
    while pending:
        batch, pending = pending[:CHUNK], pending[CHUNK:]
        out = Y[: dm.n * len(batch) * dm.d].reshape(dm.n, len(batch), dm.d)
        Ystar = engine.draw(_Rekeyed(stream, batch), out)
        A, valid = engine.statistics(Ystar)
        for j, (b, attempt) in enumerate(batch):
            if valid[j]:
                A_star[b] = A[j]
            else:
                invalid_total += 1
                if attempt + 1 >= MAX_ATTEMPTS:
                    raise EstimationError(
                        f"degenerate bootstrap distribution: replicate {b} "
                        f"invalid after {MAX_ATTEMPTS} attempts"
                    )
                pending.append((b, attempt + 1))
        if invalid_total > abort_count:
            raise EstimationError(
                "degenerate bootstrap distribution: more than "
                f"{INVALID_ABORT_FRACTION:.0%} of replicates invalid "
                f"({invalid_total} redraws for B={B})"
            )

    # Free the chunk buffers before BootstrapDraws sorts its copy of |A_star|:
    # a copy allocated above them keeps the heap from shrinking, which raised
    # the peak memory of a study process by about 3 MB (n=400, d=5, r=30).
    del engine, Y, out, Ystar
    warnings = ()
    if invalid_total > INVALID_WARN_FRACTION * B:
        warnings = (
            f"{invalid_total} invalid bootstrap replicates redrawn "
            f"(more than {INVALID_WARN_FRACTION:.1%} of B={B})",
        )
    return BootstrapDraws(
        A_star=A_star,
        kind=cfg.kind,
        seed=cfg.seed,
        invalid_redraws=invalid_total,
        warnings=warnings,
    )


def save_draws_csv(draws: BootstrapDraws, path, labels=None) -> None:
    """Dump the replicate matrix to CSV for audit (one row per replicate)."""
    header = ",".join(labels) if labels else ",".join(
        f"contrast_{s + 1}" for s in range(draws.r)
    )
    np.savetxt(path, draws.A_star, delimiter=",", header=header, comments="")
