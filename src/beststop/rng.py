"""Seedable deterministic random source.

splitmix64 is a tiny, well specified 64-bit generator: state advances by a
fixed odd constant and the output is a finalizer over the new state.  Any
implementation from the published constants produces the same stream, which
keeps simulation results reproducible across languages and machines.

walk draws a whole path through a walk table (see walk_node) with the
generator stepped inline, the same words below would draw one call at a time.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

from .errors import InvalidInputError

_SPAN = 1 << 64
_MASK = _SPAN - 1

# a walk table's node: (total, rejection limit, cumulative weights but the
# last, the nodes it moves to)
WalkNode = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def walk_node(weights: Sequence[int], kids: Sequence[int]) -> WalkNode:
    """A node of a walk table that moves to kids[i] with probability
    weights[i] / total, as below(total) picks it; total is the sum of the
    weights.  A node whose total is at most 1 draws nothing and ends a walk.
    Refused when total exceeds 2**64, which one word cannot cover."""
    *cums, total = accumulate(weights, initial=0)
    if total > _SPAN:
        raise InvalidInputError(f"a walk node takes totals up to 2**64, got {total}")
    return total, _SPAN - _SPAN % total if total > 1 else 0, tuple(cums[1:]), tuple(kids)


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

    def walk(self, table: Sequence[WalkNode], node: int) -> int:
        """The node where a walk through table from node ends: at each node
        of total > 1, the kid below(total) picks, by the same words.  Every
        total is at most 2**64 (walk_node), so one word covers it: the loop
        is below's one-word case with next64 inlined."""
        state = self.state
        total, limit, cums, kids = table[node]
        while total > 1:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:  # else the word is rejected and the node draws again
                node = kids[bisect_right(cums, z % total)]
                total, limit, cums, kids = table[node]
        self.state = state
        return node

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
