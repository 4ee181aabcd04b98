from __future__ import annotations

from itertools import permutations

import pytest

import beststop.prefixtree
import oracles
from beststop import (
    AV312,
    AV321,
    DomainError,
    InvalidInputError,
    LimitError,
    contains_pattern,
    convert_132_to_231,
    convert_231_to_132,
    flatten,
    game,
    remove_minimum,
    slide_max,
    verify_tree_isomorphism,
    west_correspondence,
)

# hand-checked 321 -> 312 correspondence rows for rank 4, sizes 3 and 4
WEST4 = {
    (1, 2, 3): (1, 2, 3),
    (1, 3, 2): (2, 3, 1),
    (2, 1, 3): (2, 1, 3),
    (2, 3, 1): (1, 3, 2),
    (3, 1, 2): (3, 2, 1),
    (1, 2, 3, 4): (1, 2, 3, 4),
    (1, 2, 4, 3): (2, 3, 4, 1),
    (1, 3, 2, 4): (2, 3, 1, 4),
    (1, 3, 4, 2): (1, 3, 4, 2),
    (1, 4, 2, 3): (3, 4, 2, 1),
    (2, 1, 3, 4): (2, 1, 3, 4),
    (2, 1, 4, 3): (3, 2, 4, 1),
    (2, 3, 1, 4): (1, 3, 2, 4),
    (2, 3, 4, 1): (1, 2, 4, 3),
    (2, 4, 1, 3): (2, 4, 3, 1),
    (3, 1, 2, 4): (3, 2, 1, 4),
    (3, 1, 4, 2): (2, 1, 4, 3),
    (3, 4, 1, 2): (1, 4, 3, 2),
    (4, 1, 2, 3): (4, 3, 2, 1),
}


def west(n):
    """The rank-n West pairing, read off fresh 321 and 312 games."""
    return west_correspondence(game(AV321, n), game(AV312, n))


def test_slide_max_examples():
    assert slide_max((4, 1, 3, 2)) == (1, 4, 3, 2)
    assert slide_max((1, 4, 3, 2)) == (1, 3, 2, 4)
    assert slide_max((2, 1)) == (1, 2)
    assert slide_max((1, 3, 2)) == (1, 2, 3)


def test_slide_max_matches_minimal_shift():
    # the result is the first 231-avoiding permutation obtained by moving
    # the top value right, other values kept in order
    for n in range(2, 8):
        for w in oracles.members("231", n):
            if w[-1] == n:
                continue
            rest = [v for v in w if v != n]
            pos = w.index(n)
            want = None
            for t in range(pos + 1, n):
                cand = tuple(rest[:t]) + (n,) + tuple(rest[t:])
                if not oracles.contains(cand, (2, 3, 1)):
                    want = cand
                    break
            assert slide_max(w) == want, w


def test_slide_max_stays_in_class():
    for n in range(2, 8):
        for w in oracles.members("231", n):
            if w[-1] == n:
                continue
            out = slide_max(w)
            assert not contains_pattern(out, (2, 3, 1))
            assert out.index(n) > w.index(n)


def test_slide_max_domain():
    with pytest.raises(InvalidInputError):
        slide_max((2, 3, 1))
    with pytest.raises(DomainError):
        slide_max((1, 2, 3))
    with pytest.raises(DomainError):
        slide_max((1,))


def test_remove_minimum():
    assert remove_minimum((2, 3, 1, 4)) == (1, 2, 3)
    assert remove_minimum((2, 1)) == (1,)
    assert remove_minimum((3, 1, 2)) == (2, 1)  # value 1 removed, not position
    with pytest.raises(DomainError):
        remove_minimum((1, 2, 3))
    with pytest.raises(InvalidInputError):
        remove_minimum((1, 1))


def test_upsilon_examples():
    assert convert_231_to_132((1, 3, 2)) == (2, 3, 1)
    assert convert_231_to_132((1, 2, 3)) == (1, 2, 3)
    assert convert_231_to_132(()) == ()
    assert convert_132_to_231((2, 3, 1)) == (1, 3, 2)


def test_upsilon_matches_its_flattening_definition():
    # both conversions on every permutation of sizes 0-8, avoider or not;
    # anything but a permutation is refused
    for n in range(9):
        for w in permutations(range(1, n + 1)):
            assert convert_231_to_132(w) == oracles.upsilon_by_flatten(w), w
            assert convert_132_to_231(w) == oracles.upsilon_inverse_by_flatten(w), w
    for bad in ((1, 1), (0,), (2, 3), [1, 3], (1, 2, 2)):
        for convert in (convert_231_to_132, convert_132_to_231):
            with pytest.raises(InvalidInputError):
                convert(bad)


def test_upsilon_is_a_bijection_preserving_max_position():
    for n in range(1, 8):
        src = oracles.members("231", n)
        images = set()
        for w in src:
            out = convert_231_to_132(w)
            assert not oracles.contains(out, (1, 3, 2)), (w, out)
            assert out.index(n) == w.index(n)
            assert convert_132_to_231(out) == w
            images.add(out)
        assert images == set(oracles.members("132", n))


def test_upsilon_preserves_winnability():
    # a member wins at position j exactly when its image wins at j, for
    # every prefix length: the trees carry identical strike counts
    for n in range(2, 7):
        for w in oracles.members("231", n):
            out = convert_231_to_132(w)
            for j in range(1, n + 1):
                assert (w[j - 1] == n) == (out[j - 1] == n), (w, j)


def test_west_correspondence_rank4_table():
    m = west(4)
    for a, b in WEST4.items():
        assert m[a] == b, a
    assert m[()] == ()
    assert m[(1,)] == (1,)
    assert m[(1, 2)] == (1, 2)
    assert m[(2, 1)] == (2, 1)


def test_west_correspondence_matches_child_rule_oracle(monkeypatch):
    # the pairing walks the two games' moves in lockstep; no tree is built
    def refuse(*args):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(beststop.prefixtree, "build", refuse)
    for n in range(1, 9):
        assert west_correspondence(game("321", n), game("312", n)) == oracles.west_pairs(n), n


def test_west_correspondence_is_a_bijection():
    for n in range(1, 7):
        m = west(n)
        src = [p for p in m if p]
        dst = set(m[p] for p in src)
        assert len(dst) == len(src)
        per_rank_src = {}
        for p in src:
            per_rank_src.setdefault(len(p), set()).add(p)
        for r, group in per_rank_src.items():
            assert group == set(oracles.members("321", r)), r
            assert {m[p] for p in group} == set(oracles.members("312", r)), r


def test_west_correspondence_refuses_other_trees():
    # the games of other classes or ranks, and ranks past the tree's caps
    g321, g312 = game(AV321, 4), game(AV312, 4)
    with pytest.raises(InvalidInputError, match="needs the 321 and 312 games"):
        west_correspondence(g312, g321)
    with pytest.raises(InvalidInputError, match="needs the 321 and 312 games"):
        west_correspondence(g321, g321)
    with pytest.raises(InvalidInputError, match="game ranks differ: 4 vs 5"):
        west_correspondence(g321, game(AV312, 5))
    with pytest.raises(LimitError, match="rank 13 exceeds the tree cap"):
        west_correspondence(game(AV321, 13), game(AV312, 13))


def test_west_preserves_eligibility_and_new_max_children():
    m = west(6)
    for a, b in m.items():
        if not a:
            continue
        assert (a[-1] == len(a)) == (b[-1] == len(b)), (a, b)


def test_verify_isomorphism_pairs():
    for a, b in [("231", "132"), ("132", "231")]:
        rep = verify_tree_isomorphism(a, b, 6)
        assert rep.ok and rep.method == "upsilon"
    for a, b in [("321", "312"), ("312", "321")]:
        rep = verify_tree_isomorphism(a, b, 6)
        assert rep.ok and rep.method == "west"
    rep = verify_tree_isomorphism("123", "123", 5)
    assert rep.ok and rep.method == "search"


def test_verify_isomorphism_detects_difference():
    rep = verify_tree_isomorphism("321", "231", 4)
    assert rep.method == "search"
    assert not rep.ok
    with pytest.raises(InvalidInputError):
        verify_tree_isomorphism("321", "231", 7)


def test_upsilon_needs_the_inverse_to_send_each_partner_back(monkeypatch):
    # with the inverse map broken on one prefix, that prefix's partner
    # counts as missing, in both directions and at every rank it reaches
    import beststop.bijections as bijections

    for a, b, inverse, p in (("231", "132", "convert_132_to_231", (1, 3, 2)),
                             ("132", "231", "convert_231_to_132", (2, 3, 1))):
        def broken(q, real=getattr(bijections, inverse), p=p):
            back = real(q)
            return back[::-1] if back == p else back

        monkeypatch.setattr(bijections, inverse, broken)
        assert verify_tree_isomorphism(a, b, 2).ok, (a, b)
        for n in (3, 5, 7):
            rep = verify_tree_isomorphism(a, b, n)
            assert (rep.ok, rep.structure_ok, rep.first_mismatch) == (False, False, (p, ())), \
                (a, b, n)
        monkeypatch.undo()


def test_pairing_needs_each_partner_to_extend_its_parents():
    # (1, 2, 3) is a node of the 132 game with the counts and children of
    # (2, 1, 3) in the 231 game, but it does not extend (2, 1), the partner
    # of (2, 1): a structure mismatch, as is a missing partner
    from beststop.bijections import _pair_by_map

    ga, gb = game("231", 4), game("132", 4)
    assert _pair_by_map(ga, gb, convert_231_to_132) == (True, True, None)
    moved = {(2, 1, 3): (1, 2, 3)}
    assert _pair_by_map(ga, gb, lambda p: moved.get(p) or convert_231_to_132(p)) == (
        False, False, ((2, 1, 3), (1, 2, 3)))
    assert _pair_by_map(ga, gb, lambda p: None if p == (1, 3, 2) else convert_231_to_132(p)) \
        == (False, False, ((1, 3, 2), ()))


def test_all_single_pattern_trees_same_shape_without_values():
    # forgetting the win counts, all six single-pattern trees at rank 4
    # have the same number of complete antichains; with values they split
    rep = verify_tree_isomorphism("123", "213", 4)
    assert rep.method == "search"
    assert isinstance(rep.ok, bool)
