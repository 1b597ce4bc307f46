"""Seeded 64-bit splitmix generator used by all simulation code, and the
exact draws (`weighted_draw`, `SplitMix64.choice`) that every simulation
makes: a draw depends on the seed and the exact weights, never on rounding.

Test vectors (seed 1234567):
    next_u64() -> 6457827717110365317
    next_u64() -> 3203168211198807973
    next_u64() -> 9817491932198370423

Matches the reference splitmix64 stepping (golden-gamma increment).
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased), drawn from as
        many 64-bit words as n - 1 needs, at least one."""
        if n <= 0:
            raise ValueError("empty range")
        while True:
            x, span = self.next_u64(), 1 << 64
            while span < n:
                x, span = (x << 64) | self.next_u64(), span << 64
            if x < span - span % n:
                return x % n

    def choice(self, seq):
        """Uniform element of a nonempty sequence: seq[randrange(len(seq))]."""
        return seq[self.randrange(len(seq))]


def weighted_draw(weights):
    """A function rng -> i that draws i with probability exactly
    weights[i] / sum(weights): one `randrange` over the weights written as
    coprime integers, so k equal weights draw randrange(k) and a zero weight
    is never drawn."""
    exact = [Fraction(w) for w in weights]
    den = math.lcm(*(w.denominator for w in exact))
    ints = [int(w * den) for w in exact]
    divisor = math.gcd(*ints)
    cum = list(itertools.accumulate(w // divisor for w in ints))
    return lambda rng: bisect.bisect_right(cum, rng.randrange(cum[-1]))
