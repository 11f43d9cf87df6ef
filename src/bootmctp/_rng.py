"""Deterministic random-number substreams.

All stochastic code in the package draws from counter-based Philox streams
keyed by (seed, stream index).  A computation that needs randomness derives
its stream purely from integer indices, never from call order, so results
are reproducible bit for bit regardless of chunking or process scheduling.

:func:`substream` builds the stream for one (seed, index, attempt) as a new
generator; it is the reference definition.  A Philox stream is fully
determined by its key, its counter and its output buffer, so
:func:`replicate_streams` yields the same streams for many indexes of one
attempt from one Philox by assigning that state in place (re-keying), which
avoids building a bit generator and its unused entropy-seeded
``SeedSequence`` per stream.  The bootstrap builds one such generator per
thread and re-keys it for each replicate it draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _stream_key(seed: int, index, attempt: int) -> list:
    """Philox key ``[seed, attempt << 32 | index]``; for arrays, word 2 is a list.

    Raises ValueError unless `attempt` and every index lie in [0, 2**32).
    """
    index = np.asarray(index)
    if not (0 <= index.min() and index.max() < 1 << 32 and 0 <= attempt < 1 << 32):
        raise ValueError("stream index/attempt out of range")
    words = index.astype(np.uint64) | np.uint64(attempt << 32)
    return [seed & _MASK64, words.tolist()]


def substream(seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` (redraw `attempt`) under `seed`.

    `index` and `attempt` are packed into the second Philox key word, so
    streams are distinct for every (index, attempt) pair with
    index < 2**32 and attempt < 2**32.
    """
    key = np.array(_stream_key(seed, index, attempt), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_streams(generator: np.random.Generator, seed: int, index,
                      attempt: int):
    """Yield the streams of the pairs (index[j], attempt) under `seed`, in order.

    `generator` is any Generator over a Philox bit generator; its state is
    overwritten, so one generator serves any number of calls.  For each
    index the key is set to ``(seed, attempt << 32 | index[j])``, the
    counter to zero, both output buffers are emptied and `generator` is
    yielded.  Until the next index is taken, it draws exactly the numbers
    of ``substream(seed, index[j], attempt)``.
    """
    seed_word, words = _stream_key(seed, index, attempt)
    key = [seed_word, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for word in words:
        key[1] = word
        generator.bit_generator.state = state
        yield generator


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed from a root seed and an integer path.

    Used to give nested stochastic stages (simulation run -> bootstrap)
    independent substream namespaces.
    """
    ss = np.random.SeedSequence(entropy=(seed & _MASK64, *[p & _MASK64 for p in path]))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
