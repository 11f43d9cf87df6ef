"""Wild and parametric bootstrap of the studentized contrast statistics.

Both schemes resample the response only; the design, its Gram inverse, the
hat-matrix leverages and the leverage weights are fixed.  Each replicate is
refit on that design and studentized by the sandwich's own definition: its
D contracts the covariance estimate's weighted rows ``wU1sq`` with the
replicate's squared residuals, and :func:`covariance.studentize` forms the
statistics, as it does for the observed data.  Every replicate b draws from
its own counter-based substream (seed, b, attempt), so results are
independent of execution order, chunk size and thread count, bit for bit.
Replicates whose studentizer degenerates (some contrast's h'Dh is at most
float64's eps times its observed value, so a zero variance up to rounding)
are redrawn from the next attempt substream and counted.

A bootstrap runs in passes, one per redraw attempt: pass a splits the
replicate indexes still invalid (all B in pass 0) into T near-equal parts,
maps its (engine, part) pairs in one map, on T threads if T > 1, and the
invalid indexes form the next pass.  The one stopping rule, more than 1% of
B redrawn, is checked once per pass, so the result and the error do not
depend on T or the chunk size; each further pass follows a redraw, so at
most floor(0.01 B) + 1 run.  Each thread owns an engine: its Philox
generator, its scratch buffer and its response buffer of one chunk of
``min(CHUNK // T, CHUNK_CELLS // (n*d), ceil(B / T))`` replicates, and at
least one, so no chunk buffer holds more than ``CHUNK_CELLS`` doubles
(1 MiB) unless a single replicate does.  The calling thread allocates the
buffers before any work starts and each engine reuses them for every chunk
of its part, so they are not faulted in chunk after chunk.  An engine runs
its part in near-equal chunks (a short last chunk costs more per
replicate): it draws a chunk from ``_rng.replicate_streams``, which
re-keys its generator to each replicate's substream as that row is drawn,
refits it and writes its rows into ``A_star``.  Parametric normals for a
chunk are drawn into one buffer and each group's covariance root is
applied once per chunk.

T is ``min(MAX_THREADS, usable CPUs)`` when a replicate carries enough
work that releases the GIL, that is when n*d reaches the scheme's
``THREAD_MIN_CELLS``, and 1 otherwise or in any process that
multiprocessing started (a ``run_study`` pool worker), which shares the
CPUs with its siblings.  numpy releases the GIL in every per-row
``random_raw`` or ``standard_normal`` call, so on small rows two threads
mostly hand the GIL back and forth.  At B=1000 and k=4 on two CPUs, two
threads were slower than one up to n*d = 400 in both schemes; the wild
scheme was mixed up to n*d = 1200 and faster from 1300, the parametric
one faster from 600, and they were about 1.3 and 1.6 times as fast at
n = 400, d = 5.

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

import contextlib
import csv
import itertools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .contrasts import ContrastMatrix
from .covariance import (
    CovarianceEstimate,
    _sandwich_diagonal,
    groupwise_cov,
    psd_sqrt,
    studentize,
)
from .dataset import _integer, _real_array, group_slices
from .design import DesignMatrices, FitResult
from .exceptions import ConfigError, EstimationError
from ._rng import replicate_streams

CHUNK = 256
CHUNK_CELLS = 1 << 17  # doubles in one chunk buffer, 1 MiB
INVALID_WARN_FRACTION = 0.001
INVALID_ABORT_FRACTION = 0.01

KINDS = ("wild", "parametric")
MAX_THREADS = 2
THREAD_MIN_CELLS = {"wild": 1500, "parametric": 600}  # n*d, see the docstring


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, scheme and seed for one bootstrap run.

    Construction checks all three and raises ConfigError for a bad one.
    """

    kind: str
    B: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown bootstrap kind '{self.kind}', "
                              f"expected one of {', '.join(KINDS)}")
        object.__setattr__(self, "B", _integer(self.B, "bootstrap B", ConfigError))
        object.__setattr__(self, "seed", _integer(self.seed, "bootstrap seed", ConfigError))
        if self.B < 1:
            raise ConfigError("bootstrap replicate count B must be >= 1")
        if self.B > 1 << 32:  # replicate b draws from stream index b < 2**32
            raise ConfigError("bootstrap replicate count B must be <= 2**32")


def _rank_abs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|A| with each column sorted ascending, and each entry's left rank in it.

    One argsort per column gives both: the left rank (``searchsorted`` with
    side="left") is the first sorted position of the entry's tie group.
    """
    absT = np.abs(A.T, order="C")  # contiguous columns sort fastest
    order = np.argsort(absT, axis=1)
    S = np.take_along_axis(absT, order, axis=1)
    first = np.zeros(S.shape, dtype=np.intp)
    first[:, 1:] = np.where(S[:, 1:] != S[:, :-1], np.arange(1, S.shape[1]), 0)
    ranks = np.empty_like(first)
    np.put_along_axis(ranks, order, np.maximum.accumulate(first, axis=1), axis=1)
    return S.T, ranks.T


@dataclass(frozen=True)
class BootstrapDraws:
    """B x r matrix of bootstrap statistics, one row per replicate, kept as a read-only copy.

    ``sorted_abs`` (|A_star|, each column sorted ascending) and ``ranks``
    come from one sort on construction (:func:`_rank_abs`): the level
    adjustment, the quantiles and the p-values in ``mctp`` all read them.
    """

    A_star: np.ndarray
    kind: str
    seed: int
    invalid_redraws: int = 0
    warnings: tuple[str, ...] = ()
    sorted_abs: np.ndarray = field(init=False, repr=False, compare=False)
    ranks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A_star = _real_array(self.A_star, "bootstrap statistics", EstimationError)
        if A_star.ndim != 2 or A_star.size == 0:
            raise EstimationError("bootstrap statistics must be a B x r matrix with B, r >= 1")
        if not np.all(np.isfinite(A_star)):
            raise EstimationError("bootstrap statistics contain non-finite values")
        for name, value in zip(("A_star", "sorted_abs", "ranks"), (A_star, *_rank_abs(A_star))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def B(self) -> int:
        return self.A_star.shape[0]


def _wild_signs(rngs, out: np.ndarray) -> np.ndarray:
    """Rademacher signs into the (m, n) array `out`, one row per stream.

    Row j, from the j-th fresh stream ``rng`` of the iterable `rngs`, is
    ``rng.integers(0, 2, size=n) * 2.0 - 1.0``, read from
    ``random_raw(ceil(n/2))``: numpy maps each 32-bit draw to {0, 1} by its
    top bit and splits each 64-bit word low half first, so bits 31 and 63 of
    each word give two consecutive signs.  Returns `out`.
    """
    m, n = out.shape
    w = (n + 1) // 2
    words = np.fromiter((r.bit_generator.random_raw(w) for r in rngs), ("<u8", w), m)
    np.right_shift(words.view("<u4")[:, :n], 31, out=out)  # low half first
    out *= 2.0
    out -= 1.0
    return out


def _draw_wild(residuals: np.ndarray, scale: np.ndarray, work: np.ndarray,
               rngs, out: np.ndarray) -> np.ndarray:
    """Write wild-multiplier responses for one chunk into `out`.

    Each subject's residual vector is multiplied by one sign shared across
    the outcome components (see :func:`_wild_signs`), drawn into `work`,
    and rescaled by `scale`, 1/sqrt(1-p).  Returns `out`, the (n, m, d)
    responses.
    """
    n, m, d = out.shape
    t = _wild_signs(rngs, work[: m * n].reshape(m, n))
    t *= scale
    for j in range(d):  # one product per entry, n*m long loops
        np.multiply(t.T, residuals[:, j, None], out=out[:, :, j])
    return out


def _draw_parametric(slices: list[slice], roots: list[np.ndarray], work: np.ndarray,
                     rngs, out: np.ndarray) -> np.ndarray:
    """Write group-wise zero-mean normal responses for one chunk into `out`.

    Each stream fills its replicate's n x d standard normals in an
    (m, n, d) view of `work`.  Each group's symmetric PSD covariance root
    (singular covariances allowed) multiplies the group's normals of all
    replicates in one matmul, whose (m, n_g, d) output is a transposed view
    of the chunk.  Returns `out`, the (n, m, d) responses.
    """
    n, m, d = out.shape
    normals = work[: m * n * d].reshape(m, n, d)
    for rows, rng in zip(normals, rngs, strict=True):
        rng.standard_normal(out=rows)
    for sl, L in zip(slices, roots):
        np.matmul(normals[:, sl], L, out=out[sl].transpose(1, 0, 2))
    return out


class _Engine:
    """Refit state of one bootstrap and one thread's buffers and generator.

    ``draw(rngs, out)`` is the scheme's response draw for one chunk, a
    partial of :func:`_draw_wild` or :func:`_draw_parametric` on this
    engine's arrays (a bound method would form a cycle that outlives the
    bootstrap).  A chunk of m replicate responses is stored subject-major,
    as an (n, m, d) array that the refit views as (n, q) with q = m*d, so
    each refit contraction runs over the leading axis of both operands.
    The scratch and response buffers are allocated for `chunk` replicates
    on construction; :meth:`replicates` runs its replicates through them a
    chunk at a time.
    """

    def __init__(self, kind: str, dm: DesignMatrices, fit: FitResult,
                 cov: CovarianceEstimate, H: np.ndarray, chunk: int):
        self.n, self.k, self.d = dm.n, dm.k, dm.d
        self.XG = np.ascontiguousarray((dm.gram_inv @ dm.X.T).T)
        self.Xt = np.ascontiguousarray(dm.X.T)
        self.wU1sq = cov.wU1sq
        self.H = H
        with np.errstate(over="ignore"):  # an infinite observed h'Dh fails every row
            self.floor = np.finfo(float).eps * (H**2 @ cov.D)
        self._work = np.empty(dm.n * chunk * dm.d)
        self._Y = np.empty(dm.n * chunk * dm.d)
        self._rng = np.random.Generator(np.random.Philox(0))
        if kind == "wild":
            self.wild_scale = 1.0 / np.sqrt(1.0 - dm.leverages)
            self.draw = partial(_draw_wild, fit.residuals, self.wild_scale, self._work)
        else:
            sigmas = cov.group_sigmas or groupwise_cov(fit, dm.n_i, dm.c)
            self.draw = partial(_draw_parametric, group_slices(dm.n_i),
                                [psd_sqrt(S) for S in sigmas], self._work)

    def replicates(self, seed: int, index: np.ndarray, attempt: int,
                   A_star: np.ndarray) -> np.ndarray:
        """Write the replicates (index[j], attempt) into ``A_star[index]``.

        Draws them from their substreams under `seed` with this engine's
        generator into its response buffer and refits them, in as few
        chunks as the buffer allows, of near-equal size.  Returns their
        validity; an invalid row holds whatever the refit gave.
        """
        n, d = self.n, self.d
        count = -(-index.size // (self._Y.size // (n * d)))
        valid = []
        for b in np.array_split(index, count):
            rngs = replicate_streams(self._rng, seed, b, attempt)
            out = self._Y[: n * b.size * d].reshape(n, b.size, d)
            A_star[b], ok = self.statistics(self.draw(rngs, out))
            valid.append(ok)
        return np.concatenate(valid)

    def statistics(self, Ystar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refit an (n, m, d) chunk of responses; return (statistics, validity).

        Each refit einsum contracts the leading axis of both operands,
        which numpy sums as ``acc += a_i * b_i`` in index order for every
        chunk size (``tests/oracles.sequential_refit`` pins this).  A
        replicate is valid when every statistic is finite and every h'Dh
        exceeds ``floor``: float64's eps times the observed h'D-hat h of its
        contrast.  Below that floor h'Dh is rounding noise of a zero variance.
        """
        n, k, d = self.n, self.k, self.d
        m = Ystar.shape[1]
        Yq = Ystar.reshape(n, m * d)
        beta = np.einsum("np,nq->pq", self.XG, Yq)
        # Fitted values, turned into squared residuals in the same buffer.
        resid_sq = self._work[: n * m * d].reshape(n, m * d)
        np.einsum("pn,pq->nq", self.Xt, beta, out=resid_sq)
        np.subtract(Yq, resid_sq, out=resid_sq)
        np.square(resid_sq, out=resid_sq)
        D = _sandwich_diagonal(self.wU1sq, resid_sq)
        A, hDh = studentize(_replicate_rows(beta[:k], m, d),
                            _replicate_rows(D, m, d), self.H, n)
        return A, np.isfinite(A).all(axis=1) & (hDh > self.floor).all(axis=1)


def _replicate_rows(V: np.ndarray, m: int, d: int) -> np.ndarray:
    """(k, m*d) columns of a chunk as a C-contiguous (m, k*d) array."""
    k = V.shape[0]
    return V.reshape(k, m, d).transpose(1, 0, 2).reshape(m, k * d)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(kind: str, n: int, d: int) -> int:
    """Threads for a bootstrap of `kind` on n subjects and d outcomes.

    One below the scheme's gate on n*d or in a process that multiprocessing
    started, else ``MAX_THREADS`` capped by :func:`_usable_cpus`.
    """
    if n * d < THREAD_MIN_CELLS[kind] or multiprocessing.parent_process() is not None:
        return 1
    return min(MAX_THREADS, _usable_cpus())


def _run_passes(cfg: BootstrapConfig, dm: DesignMatrices, fit: FitResult,
                cov: CovarianceEstimate, H: np.ndarray, A_star: np.ndarray) -> int:
    """Fill `A_star` with valid replicates, one pass per attempt; return the redraws.

    The engines and their chunk buffers live only for this call, so they
    are freed before :class:`BootstrapDraws` copies and sorts A_star: a
    copy allocated above them kept the heap from shrinking, which raised
    the peak memory of a study process by about 3 MB (n=400, d=5, r=30).
    """
    B = cfg.B
    T = _thread_count(cfg.kind, dm.n, dm.d)
    chunk = max(1, min(CHUNK // T, CHUNK_CELLS // (dm.n * dm.d), -(-B // T)))
    engines = [_Engine(cfg.kind, dm, fit, cov, H, chunk) for _ in range(T)]
    index, invalid_total = np.arange(B), 0
    with ThreadPoolExecutor(T) if T > 1 else contextlib.nullcontext() as pool:
        for attempt in itertools.count():  # at most floor(0.01 B) + 1 passes
            parts = np.array_split(index, min(T, index.size))
            valid = (pool.map if pool else map)(
                lambda e, part: e.replicates(cfg.seed, part, attempt, A_star), engines, parts)
            index = index[~np.concatenate(list(valid))]  # read before attempt moves on
            if not index.size:
                return invalid_total
            invalid_total += index.size
            if invalid_total > INVALID_ABORT_FRACTION * B:
                raise EstimationError(
                    "degenerate bootstrap distribution: more than "
                    f"{INVALID_ABORT_FRACTION:.0%} of replicates invalid "
                    f"({invalid_total} redraws for B={B})"
                )


def _check_width(contrasts: ContrastMatrix, k: int, d: int) -> None:
    """Raise EstimationError unless the contrasts have k*d columns."""
    if contrasts.H.shape[1] != k * d:
        raise EstimationError(f"contrast matrix has {contrasts.H.shape[1]} columns, "
                              f"expected k*d = {k * d}")


def run_bootstrap(cfg: BootstrapConfig, dm: DesignMatrices, fit: FitResult,
                  cov: CovarianceEstimate, contrasts: ContrastMatrix) -> BootstrapDraws:
    """Draw B bootstrap replicates of the studentized contrast statistics.

    All r statistics of one row come from the same resampled response.
    Invalid replicates (degenerate studentizer) are redrawn from the next
    attempt substream; a redraw share above 0.1% of B is reported as a
    warning and above 1% the bootstrap distribution is declared degenerate.
    Large designs run their chunks on up to ``MAX_THREADS`` threads (see
    the module docstring), with the same result bit for bit.

    Returns
    -------
    BootstrapDraws
        B x r statistics, deterministic given (kind, B, seed).
    """
    _check_width(contrasts, dm.k, dm.d)
    B = cfg.B
    A_star = np.empty((B, contrasts.H.shape[0]))
    invalid_total = _run_passes(cfg, dm, fit, cov, contrasts.H, A_star)
    warnings = ()
    if invalid_total > INVALID_WARN_FRACTION * B:
        warnings = (
            f"{invalid_total} invalid bootstrap replicates redrawn "
            f"(more than {INVALID_WARN_FRACTION:.1%} of B={B})",
        )
    return BootstrapDraws(A_star=A_star, kind=cfg.kind, seed=cfg.seed,
                          invalid_redraws=invalid_total, warnings=warnings)


def save_draws_csv(draws: BootstrapDraws, path, labels) -> None:
    """Dump the replicate matrix to CSV for audit (one row per replicate).

    The header row, `labels`, goes through :mod:`csv`, which quotes commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(labels)
        np.savetxt(fh, draws.A_star, delimiter=",")
