import numpy as np
import pytest

from bootmctp._rng import replicate_streams, substream

SEED = 20250809
KEYS = [(0, 0), (17, 0), (5, 3), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1), (0, 63)]
# replicate_streams takes one attempt per call: the indexes of KEYS by attempt.
BY_ATTEMPT = {a: [i for i, b in KEYS if b == a] for _, a in KEYS}
DRAWS = {
    "random_raw": lambda g: g.bit_generator.random_raw(9),
    "integers": lambda g: g.integers(0, 2, size=11),
    "integers_wide": lambda g: g.integers(-5, 10**9, size=7),
    "standard_normal": lambda g: g.standard_normal((4, 3)),
}


def philox():
    """A Generator over a Philox bit generator, for replicate_streams to re-key."""
    return np.random.Generator(np.random.Philox(0))


class TestReplicateStreams:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("seed", [SEED, 0, 2**64 - 1, -3])
    def test_streams_equal_substream(self, seed, draw):
        for attempt, indexes in BY_ATTEMPT.items():
            streams = replicate_streams(philox(), seed, indexes, attempt)
            for index, got in zip(indexes, streams, strict=True):
                want = DRAWS[draw](substream(seed, index, attempt))
                assert np.array_equal(DRAWS[draw](got), want), (index, attempt)

    def test_streams_equal_substream_over_a_draw_sequence(self):
        for attempt, indexes in BY_ATTEMPT.items():
            streams = replicate_streams(philox(), SEED, np.array(indexes), attempt)
            for index, got in zip(indexes, streams, strict=True):
                want = substream(SEED, index, attempt)
                for name in ("integers", "random_raw", "standard_normal",
                             "integers_wide"):
                    assert np.array_equal(DRAWS[name](got), DRAWS[name](want)), name

    def test_no_leftover_half_word_after_odd_integers_draw(self):
        # An odd number of 32-bit draws leaves the high half of the last
        # 64-bit word buffered in the bit generator; re-keying must drop it.
        streams = replicate_streams(philox(), SEED, [1, 2], 0)
        first = next(streams)
        first.integers(0, 2, size=3)
        assert first.bit_generator.state["has_uint32"] == 1
        got = next(streams).integers(0, 2, size=8)
        assert np.array_equal(got, substream(SEED, 2, 0).integers(0, 2, size=8))

    def test_every_pair_yields_the_shared_generator(self):
        generator = philox()
        first, second = replicate_streams(generator, SEED, [0, 1], 2)
        assert first is second is generator

    def test_one_generator_serves_successive_calls(self):
        # run_bootstrap re-keys one generator for each chunk it draws.
        generator = philox()
        next(replicate_streams(generator, SEED, [9], 0)).integers(0, 2, size=3)
        for attempt, indexes in BY_ATTEMPT.items():
            streams = replicate_streams(generator, SEED, indexes, attempt)
            for index, got in zip(indexes, streams, strict=True):
                want = substream(SEED, index, attempt).integers(0, 2, size=5)
                assert np.array_equal(got.integers(0, 2, size=5), want), (index, attempt)

    @pytest.mark.parametrize("index, attempt",
                             [(-1, 0), (2**32, 0), (0, -1), (0, 2**32)])
    def test_out_of_range_raises(self, index, attempt):
        with pytest.raises(ValueError, match="out of range"):
            next(replicate_streams(philox(), SEED, [0, index], attempt))
        with pytest.raises(ValueError, match="out of range"):
            substream(SEED, index, attempt)
