"""Wild and parametric bootstrap of the studentized contrast statistics.

Both schemes resample the response only; the design, its Gram inverse, the
hat-matrix leverages and the leverage weights are fixed.  Every replicate b
draws from its own counter-based substream (seed, b, attempt), so results
are independent of execution order and chunk size, bit for bit.  Replicates
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
allocates its chunk-sized response buffer once and draws every chunk into
it, and the refit forms the squared residuals in place, so the large
per-chunk arrays are not freed and faulted back in chunk after chunk.

All reductions in the refit path use np.einsum with the default
(non-optimized) contraction, whose per-replicate summation order does not
depend on the batch size; this keeps single-replicate recomputation
bitwise identical to batched execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrasts import ContrastMatrix
from .covariance import (
    CovarianceEstimate,
    check_group_divisors,
    hc4_weights,
    psd_sqrt,
)
from .dataset import _group_slices
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
    """B x r matrix of bootstrap statistics, one row per replicate."""

    A_star: np.ndarray
    kind: str
    seed: int
    invalid_redraws: int = 0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.A_star.setflags(write=False)
        if not np.all(np.isfinite(self.A_star)):
            raise EstimationError("bootstrap statistics contain non-finite values")

    @property
    def B(self) -> int:
        return self.A_star.shape[0]

    @property
    def r(self) -> int:
        return self.A_star.shape[1]


def _wild_signs(rngs, n: int) -> np.ndarray:
    """Rademacher signs, one row of n per stream in the sized iterable `rngs`.

    Row j is ``rng.integers(0, 2, size=n) * 2.0 - 1.0`` for a fresh stream,
    read from ``random_raw(ceil(n/2))``: numpy maps each 32-bit draw to
    {0, 1} by its top bit and splits each 64-bit word low half first, so
    bits 31 and 63 of each word give two consecutive signs.
    """
    m, words_per_row = len(rngs), (n + 1) // 2
    words = np.empty((m, words_per_row), dtype=np.uint64)
    for j, rng in enumerate(rngs):
        words[j] = rng.bit_generator.random_raw(words_per_row)
    bits = np.stack([(words >> 31) & 1, words >> 63], axis=2)
    return bits.reshape(m, 2 * words_per_row)[:, :n] * 2.0 - 1.0


class _Engine:
    """Precomputed refit state shared by all replicates of one bootstrap."""

    def __init__(self, dm: DesignMatrices, H: np.ndarray,
                 residuals: np.ndarray | None, sigmas=None):
        self.n, self.k, self.d = dm.n, dm.k, dm.d
        self.X = dm.X
        self.GXt = dm.gram_inv @ dm.X.T
        weights = hc4_weights(dm.leverages, dm.n)
        U1 = (dm.X @ dm.gram_inv)[:, : dm.k]
        self.wU1sq = weights[:, None] * U1**2
        self.H = H
        self.H_sq = H**2
        self.residuals = residuals
        self.wild_scale = None
        if residuals is not None:
            self.wild_scale = 1.0 / np.sqrt(1.0 - dm.leverages)
        self.group_slices = _group_slices(dm.n_i)
        self.roots = None
        if sigmas is not None:
            self.roots = [psd_sqrt(S) for S in sigmas]

    def draw_wild(self, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """Stack wild-multiplier responses for one replicate chunk.

        `rngs` is a sized iterable of fresh streams, one per row, consumed
        in order (see :func:`_wild_signs`).  The m x n x d responses are
        written to `out` when it is given.
        """
        t = _wild_signs(rngs, self.n)
        t *= self.wild_scale
        return np.multiply(t[:, :, None], self.residuals, out=out)

    def draw_parametric(self, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """Stack group-wise zero-mean normal responses for one chunk.

        `rngs` is a sized iterable of streams, one per row, consumed in
        order; each fills its row's n x d standard normals.  The m x n x d
        responses are written to `out` when it is given.
        """
        Y = np.empty((len(rngs), self.n, self.d)) if out is None else out
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=Y[j])
        for sl, L in zip(self.group_slices, self.roots):
            Y[:, sl] = Y[:, sl] @ L
        return Y

    def statistics(self, Ystar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refit a chunk of responses; return (statistics, validity) per row."""
        n, k, d = self.n, self.k, self.d
        m = Ystar.shape[0]
        beta = np.einsum("pn,mnd->mpd", self.GXt, Ystar)
        mu_flat = np.ascontiguousarray(beta[:, :k, :]).reshape(m, k * d)
        # Fitted values, turned into squared residuals in the same array.
        resid_sq = np.einsum("np,mpd->mnd", self.X, beta)
        np.subtract(Ystar, resid_sq, out=resid_sq)
        np.square(resid_sq, out=resid_sq)
        D_flat = n * np.einsum("na,mnl->mal", self.wU1sq, resid_sq).reshape(m, k * d)
        denom = np.einsum("mc,rc->mr", D_flat, self.H_sq)
        numer = np.einsum("mc,rc->mr", mu_flat, self.H)
        with np.errstate(divide="ignore", invalid="ignore"):
            A = np.sqrt(n) * numer / np.sqrt(denom)
        valid = (denom > 0.0).all(axis=1) & np.isfinite(A).all(axis=1)
        return A, valid


def _wild_engine(dm: DesignMatrices, fit: FitResult, H: np.ndarray) -> _Engine:
    return _Engine(dm, H, residuals=fit.residuals)


def _parametric_engine(dm: DesignMatrices, cov: CovarianceEstimate,
                       H: np.ndarray) -> _Engine:
    if cov.group_sigmas is None:
        check_group_divisors(dm.n_i, dm.c)
        raise EstimationError(
            "parametric bootstrap needs the group covariances, "
            "which the covariance estimate does not carry"
        )
    return _Engine(dm, H, residuals=None, sigmas=cov.group_sigmas)


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


def wild_replicate(dm: DesignMatrices, fit: FitResult, contrasts: ContrastMatrix,
                   rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One wild-bootstrap replicate: sign-flipped leverage-scaled residuals.

    Each subject's residual vector is multiplied by one random sign shared
    across all outcome components, rescaled by 1/sqrt(1-p); the model is
    refit and the studentized contrast statistics recomputed.  The signs
    are ``rng.integers(0, 2, size=n) * 2 - 1`` of a fresh stream, such as
    ``_rng.substream`` returns.

    Returns the r-vector of statistics and a validity flag (False when some
    contrast's bootstrap variance is not positive).
    """
    engine = _wild_engine(dm, fit, contrasts.H)
    A, valid = engine.statistics(engine.draw_wild([rng]))
    return A[0], bool(valid[0])


def parametric_replicate(dm: DesignMatrices, cov: CovarianceEstimate,
                         contrasts: ContrastMatrix,
                         rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One parametric replicate: group-wise zero-mean normal responses.

    Responses are drawn from N(0, Sigma_i) per group via a symmetric PSD
    square root of the group covariance (singular covariances allowed);
    the rest of the pipeline matches :func:`wild_replicate`.
    """
    engine = _parametric_engine(dm, cov, contrasts.H)
    A, valid = engine.statistics(engine.draw_parametric([rng]))
    return A[0], bool(valid[0])


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
    if cfg.kind == "wild":
        engine = _wild_engine(dm, fit, contrasts.H)
        draw = engine.draw_wild
    else:
        engine = _parametric_engine(dm, cov, contrasts.H)
        draw = engine.draw_parametric

    B = cfg.B
    r = contrasts.H.shape[0]
    A_star = np.empty((B, r))
    abort_count = INVALID_ABORT_FRACTION * B
    invalid_total = 0
    stream = ReplicateStream(cfg.seed)
    Y = np.empty((min(B, CHUNK), dm.n, dm.d))
    pending = [(b, 0) for b in range(B)]
    while pending:
        batch, pending = pending[:CHUNK], pending[CHUNK:]
        Ystar = draw(_Rekeyed(stream, batch), out=Y[: len(batch)])
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
