"""Deterministic random-number substreams.

All stochastic code in the package draws from counter-based Philox streams
keyed by (seed, stream index).  A computation that needs randomness derives
its stream purely from integer indices, never from call order, so results
are reproducible bit for bit regardless of chunking or process scheduling.

:func:`substream` builds the stream for one (seed, index, attempt) as a new
generator; it is the reference definition.  A Philox stream is fully
determined by its key, its counter and its output buffer, so
:class:`ReplicateStream` reproduces the same streams from a single Philox
by assigning that state in place (re-keying), which avoids building a
bit generator and its unused entropy-seeded ``SeedSequence`` per stream.
The bootstrap, which needs one stream per replicate, uses the re-keyed
form.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _stream_key(seed: int, index: int, attempt: int) -> list[int]:
    if not (0 <= index < 1 << 32 and 0 <= attempt < 1 << 32):
        raise ValueError("stream index/attempt out of range")
    return [seed & _MASK64, (attempt << 32) | index]


def substream(seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` (redraw `attempt`) under `seed`.

    `index` and `attempt` are packed into the second Philox key word, so
    streams are distinct for every (index, attempt) pair with
    index < 2**32 and attempt < 2**32.
    """
    key = np.array(_stream_key(seed, index, attempt), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class ReplicateStream:
    """One reusable generator that :meth:`reset` re-keys to any substream.

    After ``reset(index, attempt)`` the generator produces exactly the
    numbers of ``substream(seed, index, attempt)``: the key is set to
    ``(seed, attempt << 32 | index)``, the counter to zero, the output
    buffer to empty and any buffered 32-bit half is dropped.  Every reset
    returns the same generator object, so a stream is valid only until the
    next reset.
    """

    def __init__(self, seed: int):
        key = _stream_key(seed, 0, 0)
        self.bit_generator = np.random.Philox(key=np.array(key, dtype=np.uint64))
        self.generator = np.random.Generator(self.bit_generator)
        self._key = key
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def reset(self, index: int, attempt: int = 0) -> np.random.Generator:
        """Re-key the generator to stream `index` (redraw `attempt`)."""
        self._key[1] = _stream_key(self._key[0], index, attempt)[1]
        self.bit_generator.state = self._state
        return self.generator


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed from a root seed and an integer path.

    Used to give nested stochastic stages (simulation run -> bootstrap)
    independent substream namespaces.
    """
    ss = np.random.SeedSequence(entropy=(seed & _MASK64, *[p & _MASK64 for p in path]))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
