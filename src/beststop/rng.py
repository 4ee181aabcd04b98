"""Seedable deterministic random source.

splitmix64 is a tiny, well specified 64-bit generator: state advances by a
fixed odd constant and the output is a finalizer over the new state.  Any
implementation from the published constants produces the same stream, which
keeps simulation results reproducible across languages and machines.
"""
from __future__ import annotations

from .errors import InvalidInputError

_SPAN = 1 << 64
_MASK = _SPAN - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next64(self) -> int:
        """Next raw 64-bit output."""
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound) via rejection sampling.

        bound may be an arbitrarily large positive integer; enough 64-bit
        words are drawn to cover it and over-range draws are rejected, so
        no modulo bias is introduced.
        """
        if bound <= 0:
            raise InvalidInputError(f"below expects a positive bound, got {bound}")
        if bound == 1:
            return 0
        if bound <= _SPAN:
            # a bound up to 2**64 takes one word: the loop below with words == 1
            limit = _SPAN - _SPAN % bound
            while True:
                value = self.next64()
                if value < limit:
                    return value % bound
        words = ((bound - 1).bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next64()
            if value < limit:
                return value % bound
