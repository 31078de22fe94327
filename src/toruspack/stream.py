"""Seeded uniform draws on the standard library.

`Stream(*entropy)` gives, bit for bit, the doubles of
`numpy.random.default_rng(numpy.random.SeedSequence(entropy))`: numpy's
SeedSequence (entropy as uint32 words, a 4-word pool mixed by `hashmix`
and `mix`, then `generate_state(4, uint64)`) seeds a PCG64 generator
(O'Neill, HMC-CS-2014-0905: a 128-bit LCG with the XSL-RR 64-bit
output), and each double is its next 64 bits' top 53 times 2**-53.  The
pipeline's realization starts, oracle starts and oracle tori are drawn
here, so they stay the draws the goldens were recorded with whatever
numpy's `Generator` methods do in later releases, and no run loads
`numpy.random`.
"""
from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_UNIT = 2.0 ** -53


def _words(entropy: tuple[int, ...]) -> list[int]:
    """Each int as its little-endian uint32 words, 0 as one word."""
    words = []
    for v in entropy:
        if v < 0:
            raise ValueError(f"expected non-negative integer entropy, got {v}")
        words.append(v & _M32)
        while v := v >> 32:
            words.append(v & _M32)
    return words


def _seed_words(entropy: tuple[int, ...]) -> list[int]:
    """SeedSequence(entropy).generate_state(8, uint32)."""
    words = _words(entropy)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * _MULT_A & _M32) & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, const = [], _INIT_B
    for i in range(2 * _POOL):
        v = (pool[i % _POOL] ^ const) * (const := const * _MULT_B & _M32) & _M32
        out.append(v ^ v >> 16)
    return out


class Stream:
    """The seeded PCG64 stream of `default_rng(SeedSequence(entropy))`."""

    __slots__ = ("_state", "_inc")

    def __init__(self, *entropy: int):
        w = _seed_words(entropy)
        # the 8 words as 4 little-endian uint64 words s0..s3: the state seed
        # is s0 * 2**64 + s1, the increment 2 (s2 * 2**64 + s3) + 1, and
        # seeding steps from state 0, adds the state seed and steps again
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self._inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
        self._state = ((self._inc + state) * _PCG_MULT + self._inc) & _M128

    def randoms(self, count: int) -> list[float]:
        """The next count doubles in [0, 1), as numpy's `random(count)`."""
        s, inc, out = self._state, self._inc, []
        for _ in range(count):
            s = (s * _PCG_MULT + inc) & _M128
            v = (s >> 64 ^ s) & _M64
            r = s >> 122
            out.append((((v >> r | v << 64 - r) & _M64) >> 11) * _UNIT)
        self._state = s
        return out

    def random(self) -> float:
        return self.randoms(1)[0]

    def uniform(self, lo: float, hi: float) -> float:
        """One draw on [lo, hi), as numpy's scalar `uniform(lo, hi)`."""
        return lo + (hi - lo) * self.random()
