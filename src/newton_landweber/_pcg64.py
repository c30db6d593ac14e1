"""numpy's ``Generator(PCG64(seed))`` stream, in pure Python, for the noise draws.

PCG64 (O'Neill 2014: a 128-bit LCG with the XSL-RR output function) and
numpy's ``SeedSequence`` seeding are frozen by numpy's stream-stability
policy (NEP 19), so the stream is reproduced bit for bit here with integer
arithmetic, and a run never loads ``numpy.random``. Only what the noise
code calls is reproduced: ``random()``, ``random(size)`` and
``integers(high)`` for ``1 <= high <= 2**32``. ``checks.check_noise_contract``
compares the stream with numpy's own ``Generator``.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) for an int seed."""
    entropy = []
    while True:  # little-endian 32-bit words; 0 is one word
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


class PCG64:
    """The draws of ``numpy.random.Generator(numpy.random.PCG64(seed))``."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed}")
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = (self._inc + (words[0] << 64 | words[1])) & _MASK128
        self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        self._spare: int | None = None  # the high half of a 64-bit draw

    def _next64(self) -> int:
        state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        self._state = state
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        x = self._next64()
        self._spare = x >> 32
        return x & _MASK32

    def random(self, size: int | None = None) -> float | np.ndarray:
        """Uniform double(s) in [0, 1): the top 53 bits of a 64-bit draw."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        draw = self._next64
        # the 53-bit ints convert to float64 exactly, and the scale is a power of 2
        return np.array([draw() >> 11 for _ in range(size)]) * 2.0**-53

    def integers(self, high: int) -> int:
        """Uniform int in [0, high) by Lemire's method on 32-bit draws."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        if high == 1:
            return 0  # numpy draws nothing for an empty range
        m = self._next32() * high
        if m & _MASK32 < high:
            threshold = (1 << 32) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32
