"""Seedable deterministic random source.

splitmix64 is a tiny, well specified 64-bit generator: state advances by a
fixed odd constant and the output is a finalizer over the new state.  Any
implementation from the published constants produces the same stream, which
keeps simulation results reproducible across languages and machines.

Word i of the stream is a pure function of seed + i*gamma mod 2**64 (Steele,
Lea & Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014),
so words makes the stream a block at a time: one big int holds a 128-bit
lane per word, and each finalizer step is one big-int operation over every
lane.  A lane's 64-bit product fits in its 128 bits and each right shift is
masked to the lane's low 64, so no lane reads another's bits and every word
equals the one next64 would return.  walks draws whole paths through a walk
table (see walk_node) from that stream, by the words below would take one
call at a time.
"""
from __future__ import annotations

import sys
from bisect import bisect_right
from functools import cache
from itertools import accumulate, chain
from typing import Iterator, Sequence

from .errors import InvalidInputError, LimitError

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 2048  # words made per block
# the step over a block's unpacked 64-bit halves that reads each lane's low
# half in lane order: to_bytes in native order puts lane 0 first on a
# little-endian machine and last on a big-endian one
_LOWS = 2 if sys.byteorder == "little" else -2

# a walk table's node: (total, rejection limit, cumulative weights but the
# last, the nodes it moves to)
WalkNode = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def walk_node(weights: Sequence[int], kids: Sequence[int]) -> WalkNode:
    """A node of a walk table that moves to kids[i] with probability
    weights[i] / total, as below(total) picks it; total is the sum of the
    weights.  A node whose total is at most 1 draws nothing and ends a walk.
    LimitError when total exceeds 2**64, which one word cannot cover."""
    *cums, total = accumulate(weights, initial=0)
    if total > _SPAN:
        raise LimitError(f"a walk node takes totals up to 2**64, got {total}")
    return total, _SPAN - _SPAN % total if total > 1 else 0, tuple(cums[1:]), tuple(kids)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next64(self) -> int:
        """Next raw 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK
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


@cache
def _lanes() -> tuple[int, int, int]:
    """words' lane constants, built on first use: a 1 in every lane, lane j
    holding (j + 1) * gamma, and the low 64 bits of every lane set."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    steps = int.from_bytes(b"".join((_GAMMA * j).to_bytes(16, "little")
                                    for j in range(1, _BLOCK + 1)), "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")
    return ones, steps, low


def _blocks(seed: int) -> Iterator[list[int]]:
    """The words of SplitMix64(seed), _BLOCK at a time."""
    ones, steps, low = _lanes()
    state, size = seed & _MASK, _BLOCK * 16
    while True:
        x = (state * ones + steps) & low  # lane j: the state after j + 1 steps
        x ^= (x >> 30) & low
        x = x * 0xBF58476D1CE4E5B9 & low
        x ^= (x >> 27) & low
        x = x * 0x94D049BB133111EB & low
        x ^= (x >> 31) & low
        yield memoryview(x.to_bytes(size, sys.byteorder)).cast("Q")[::_LOWS].tolist()
        state = (state + _BLOCK * _GAMMA) & _MASK


def words(seed: int) -> Iterator[int]:
    """The outputs of successive SplitMix64(seed).next64() calls, without
    end."""
    return chain.from_iterable(_blocks(seed))


def walks(table: Sequence[WalkNode], seed: int, trials: int) -> Iterator[int]:
    """The nodes where trials walks through table from node 0 end, drawn in
    turn from one words(seed) stream: at each node of total > 1, the kid
    below(total) picks, by the same words.  Every total is at most 2**64
    (walk_node), so one word covers it: the loop is below's one-word case."""
    stream = words(seed)
    for _ in range(trials):
        node = 0
        total, limit, cums, kids = table[0]
        if total > 1:
            for z in stream:
                if z < limit:  # else the word is rejected and the node draws again
                    node = kids[bisect_right(cums, z % total)]
                    total, limit, cums, kids = table[node]
                    if total <= 1:
                        break
        yield node
