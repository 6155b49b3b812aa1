"""Seeded random substreams: every generator in the repository comes from here.

A simulation is only reproducible if all of its randomness flows from one
root seed.  :func:`substream` derives independent, deterministic
:class:`numpy.random.Generator` streams from a root seed plus a path of
labels (ints or strings)::

    substream(config.seed)                       # the root stream
    substream(config.seed, "potential")          # independent sub-stream
    substream(config.seed, "faults", 3, "net")   # nested concerns

With an empty path the generator is *bit-identical* to
``numpy.random.default_rng(seed)`` (numpy wraps a bare int seed in a
``SeedSequence([seed])``), so routing existing call sites through this
helper changes no stream.  String labels are hashed with SHA-256, so the
derivation is stable across processes and platforms (unlike ``hash()``).

:class:`UniformStream` is the root stream's scalar ``random()`` in pure
Python, for a caller that draws one float at a time and nothing else (the
CPU model's jitter): a meta-mode run then never imports ``numpy.random``,
whose ``secrets`` import loads OpenSSL (``import numpy`` alone loads
neither).
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "UniformStream"]


def _entropy(label: int | str) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"substream labels must be >= 0, got {label}")
        return int(label)
    if isinstance(label, str):
        import hashlib

        return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
    raise TypeError(f"substream labels must be int or str, got {type(label).__name__}")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """A deterministic generator for ``(seed, *path)``.

    ``substream(s)`` equals ``numpy.random.default_rng(s)``; any non-empty
    path yields a stream statistically independent of the root and of every
    other path.
    """
    if not path:
        return np.random.default_rng(int(seed))
    entropy = [int(seed)] + [_entropy(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 (128-bit LCG
# with the XSL-RR output), constants as numpy's bit_generator / pcg64.
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, uint32)``."""
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> 16))
    return words


class UniformStream:
    """Scalar uniform draws on ``[0, 1)``, bit for bit those of
    ``substream(seed).random()``, without numpy."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        w = _seed_words(seed)
        u64 = [w[i] | (w[i + 1] << 32) for i in range(0, 8, 2)]
        init_state = (u64[0] << 64) | u64[1]
        self._inc = (((u64[2] << 64) | u64[3]) << 1 | 1) & _M128
        # pcg64_set_seed: step from 0 (state = inc), add the seed, step.
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        """The next double: the top 53 bits of one 64-bit PCG64 output."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        return (x >> 11) * (1.0 / 9007199254740992.0)
