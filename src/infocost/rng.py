"""Seedable 64-bit PRNG for the property-check suites.

The generator is xoshiro256**, chosen because it is fully specified by four
64-bit words of state and a handful of integer equations, so any
implementation in any language can reproduce comparable check suites from the
same seed.  State update, with all arithmetic mod 2^64 and rotl(x, k) the
64-bit left rotation:

    output = rotl(s1 * 5, 7) * 9
    t  = s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
    s2 ^= t
    s3  = rotl(s3, 45)

The four state words are seeded from a single 64-bit integer by four steps of
splitmix64:

    z = (seed + p * 0x9E3779B97F4A7C15)            for p = 1, 2, 3, 4
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    word_p = z ^ (z >> 31)

uniform() maps the top 53 bits of one output to [0, 1).
"""

from __future__ import annotations

import math

from .errors import _integer

MASK64 = 0xFFFFFFFFFFFFFFFF


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


def _splitmix64(x: int) -> int:
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class Xoshiro256:
    """xoshiro256** stream; deterministic given the integer seed."""

    def __init__(self, seed: int = 0):
        seed = _integer(seed, "seed", -math.inf, math.inf) & MASK64
        self._s = [
            _splitmix64((seed + p * 0x9E3779B97F4A7C15) & MASK64)
            for p in (1, 2, 3, 4)
        ]
        if not any(self._s):  # the all-zero state is a fixed point
            self._s[0] = 1

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive, by rejection-free modular draw."""
        span = hi - lo + 1
        return lo + int(self.uniform() * span) % span
