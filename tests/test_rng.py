from __future__ import annotations

import hashlib
from itertools import islice

import pytest

import oracles
from beststop import InvalidInputError, LimitError, SplitMix64
from beststop.rng import _BLOCK, _GAMMA, walk_node, walks, words

# published splitmix64 outputs for seed 0
SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_reference_vector():
    r = SplitMix64(0)
    assert tuple(r.next64() for _ in range(3)) == SEED0


# 0, 1, both spellings of the largest seed, and a seed whose first word's
# state is 2**64 - 1, so the lane sum of the second wraps
WORD_SEEDS = (0, 1, 2**64 - 1, -1, 2**64 - _GAMMA - 1)


@pytest.mark.parametrize("seed", WORD_SEEDS)
def test_words_match_next64(seed):
    # past three block boundaries, and a few words into the fourth block
    r, count = SplitMix64(seed), 3 * _BLOCK + 5
    assert list(islice(words(seed), count)) == [r.next64() for _ in range(count)]


def test_words_reference_vector():
    assert tuple(islice(words(0), 3)) == SEED0


def test_determinism():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next64() for _ in range(50)] == [b.next64() for _ in range(50)]
    assert SplitMix64(1).next64() != SplitMix64(2).next64()


def test_below_bounds_and_coverage():
    r = SplitMix64(7)
    seen = set()
    for _ in range(600):
        v = r.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_one_is_zero():
    r = SplitMix64(3)
    assert all(r.below(1) == 0 for _ in range(10))


def test_below_rejects_nonpositive():
    r = SplitMix64(3)
    with pytest.raises(InvalidInputError):
        r.below(0)


def test_below_large_bound():
    # just below 2^63; bounds past 64 bits are checked against the oracle
    r = SplitMix64(11)
    bound = 2**63 - 1
    for _ in range(5):
        assert 0 <= r.below(bound) < bound


BOUNDS = (1, 2, 7, 16796, 2**63 - 1, 2**64 - 1, 2**64, 2**64 + 1, 2**130 + 7)


# sha256 of repr((draws, states)) for each bound: the 100 draws below(bound)
# makes from seeds 0-4, 20 a seed, and the five final states, recorded off
# the rejection loop over whole 64-bit words; 2**64 - 1 and 2**64 draw alike,
# as no word of these seeds is 2**64 - 1
BELOW_SHA256 = {
    1: "da8e9867fb9e490681c77d21c0299851cc284e4ff630af67121262a32663f0d2",
    2: "1dd535221f0ab90831e740f5e056579bda2d46aa219bf97eba4bd7a88b75b3dc",
    7: "c08f5aafa9fe015c274f525fe8a422741821ebca9a58dcbdc63cbda1f3d12e94",
    16796: "7d58f7b094fd03331c3858752a7e1e0f2bae5e5610d0df5d60de6eee82a2f582",
    2**63 - 1: "ffe9c6f01574ff71ebd38331e19e20467c42558174247f4101e06078c561cda6",
    2**64 - 1: "048c611cf7c6533f2f1d97e04c60a3d6a041b4f49023fe2bb76b650c18ce7783",
    2**64: "048c611cf7c6533f2f1d97e04c60a3d6a041b4f49023fe2bb76b650c18ce7783",
    2**64 + 1: "a2b238e9459d65b9e30fb6ef9055b6286b4d0b757b8b664dd7f0962c583de2b7",
    2**130 + 7: "6a0d4ea9096411ca20b09cc9b28fb0f8e9e0fc41129aee9519b30a620d0e1375",
}


@pytest.mark.parametrize("bound", BOUNDS)
def test_below_matches_word_loop(bound):
    # one-word and multi-word bounds draw the same values, in the same
    # number of words, as the general rejection loop did when recorded
    draws, states = [], []
    for seed in range(5):
        r = SplitMix64(seed)
        draws += [r.below(bound) for _ in range(20)]
        states.append(r.state)
    assert hashlib.sha256(repr((draws, states)).encode()).hexdigest() == BELOW_SHA256[bound]


def test_below_stream_across_the_word_boundary():
    r = SplitMix64(1)
    assert [r.below(b) for b in BOUNDS[-4:]] == [
        10451216379200822465, 13757245211066428519, 8731885537248441262,
        599881876311382562377038947983578840739]


def test_chance_frequency():
    # a num/den coin is below(den) < num
    r = SplitMix64(5)
    hits = sum(r.below(3) < 1 for _ in range(30000))
    assert abs(hits / 30000 - 1 / 3) < 0.01


def test_chance_degenerate():
    r = SplitMix64(5)
    assert all(r.below(1) < 1 for _ in range(5))
    assert not any(r.below(4) < 0 for _ in range(5))


def walk_by_below(rng, table, node):
    """The walks oracle: one below(total) call a node."""
    total, _, cums, kids = table[node]
    while total > 1:
        r = rng.below(total)
        node = next(kid for cum, kid in zip(cums + (total,), kids) if r < cum)
        total, _, cums, kids = table[node]
    return node


WALK_TABLES = {
    # total 1 ends the walk with no word drawn, as below(1) takes none
    "settled": [walk_node([1], [1]), walk_node([], [])],
    # small totals: two levels over four leaves, one node with a single kid
    "small": [walk_node([2, 5], [1, 2]), walk_node([1, 1], [3, 4]),
              walk_node([5], [5]), walk_node([], []), walk_node([], []),
              walk_node([3, 1, 1], [3, 4, 6]), walk_node([1], [4])],
    # just over 2**63: about half the words are rejected
    "half rejected": [walk_node([2**62, 2**62 + 1], [1, 2]), walk_node([], []),
                      walk_node([], [])],
}


@pytest.mark.parametrize("name", WALK_TABLES)
def test_walk_matches_below(name):
    # walks against one below call a node, and the scalar word-by-word walk
    # against both, drawing as many words a walk as below does
    table = WALK_TABLES[name]
    for seed in range(40):
        r, oracle = SplitMix64(seed), SplitMix64(seed)
        for end in walks(table, seed, 30):
            assert end == oracles.walk_by_words(r, table, 0) == walk_by_below(
                oracle, table, 0), (name, seed)
            assert r.state == oracle.state
        if name == "settled":
            assert r.state == SplitMix64(seed).state  # drew nothing


def test_walk_node_fields_and_refusal():
    assert walk_node([3, 5], [7, 9]) == (8, 2**64, (3,), (7, 9))
    assert walk_node([2**63 + 1], [0])[1] == 2**64 - (2**64 % (2**63 + 1))
    assert walk_node([], [])[0] == 0
    assert walk_node([2**64], [0])[0] == 2**64
    with pytest.raises(LimitError):
        walk_node([2**64, 1], [0, 1])
