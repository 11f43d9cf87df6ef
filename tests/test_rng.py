import numpy as np
import pytest

from bootmctp._rng import ReplicateStream, substream

SEED = 20250809
KEYS = [(0, 0), (17, 0), (5, 3), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1), (0, 63)]
DRAWS = {
    "random_raw": lambda g: g.bit_generator.random_raw(9),
    "integers": lambda g: g.integers(0, 2, size=11),
    "integers_wide": lambda g: g.integers(-5, 10**9, size=7),
    "standard_normal": lambda g: g.standard_normal((4, 3)),
}


class TestReplicateStream:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("seed", [SEED, 0, 2**64 - 1, -3])
    def test_reset_equals_substream(self, seed, draw):
        stream = ReplicateStream(seed)
        for index, attempt in KEYS:
            got = DRAWS[draw](stream.reset(index, attempt))
            want = DRAWS[draw](substream(seed, index, attempt))
            assert np.array_equal(got, want), (index, attempt)

    def test_reset_equals_substream_over_a_draw_sequence(self):
        stream = ReplicateStream(SEED)
        for index, attempt in KEYS:
            got, want = stream.reset(index, attempt), substream(SEED, index, attempt)
            for name in ("integers", "random_raw", "standard_normal", "integers_wide"):
                assert np.array_equal(DRAWS[name](got), DRAWS[name](want)), name

    def test_no_leftover_half_word_after_odd_integers_draw(self):
        # An odd number of 32-bit draws leaves the high half of the last
        # 64-bit word buffered in the bit generator; reset must drop it.
        stream = ReplicateStream(SEED)
        stream.reset(1, 0).integers(0, 2, size=3)
        assert stream.bit_generator.state["has_uint32"] == 1
        got = stream.reset(2, 0).integers(0, 2, size=8)
        assert np.array_equal(got, substream(SEED, 2, 0).integers(0, 2, size=8))

    def test_reset_returns_the_shared_generator(self):
        stream = ReplicateStream(SEED)
        assert stream.reset(0) is stream.reset(1, 2) is stream.generator

    @pytest.mark.parametrize("index, attempt",
                             [(-1, 0), (2**32, 0), (0, -1), (0, 2**32)])
    def test_out_of_range_raises(self, index, attempt):
        with pytest.raises(ValueError, match="out of range"):
            ReplicateStream(SEED).reset(index, attempt)
        with pytest.raises(ValueError, match="out of range"):
            substream(SEED, index, attempt)
