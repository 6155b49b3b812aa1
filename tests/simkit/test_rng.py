"""``UniformStream`` draws what ``substream(seed).random()`` draws, bit for bit.

The CPU model's jitter comes from :class:`~repro.simkit.rng.UniformStream`,
a pure-Python PCG64 seeded as numpy seeds a bare int, so a meta-mode run
needs no ``numpy.random``.  Every simulated time depends on these draws:
they must equal numpy's over long runs and for seeds of one, two and three
32-bit words (numpy's ``SeedSequence`` splits an int into such words).
"""

import pytest

from repro.simkit.rng import UniformStream, substream

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5]
N_DRAWS = 100_000


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_numpy_root_stream(seed):
    stream = UniformStream(seed)
    assert [stream.random() for _ in range(N_DRAWS)] == substream(seed).random(N_DRAWS).tolist()


def test_scalar_draws_match_one_at_a_time():
    stream, rng = UniformStream(11), substream(11)
    assert [stream.random() for _ in range(100)] == [rng.random() for _ in range(100)]


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        UniformStream(-1)
