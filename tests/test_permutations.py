from __future__ import annotations

import gc
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beststop import (
    CLASSES,
    AV132,
    AV213,
    AV231,
    AV312,
    AV321,
    UNRESTRICTED,
    InvalidInputError,
    LimitError,
    PatternClass,
    child_indices,
    contains_pattern,
    enumerate_class,
    extend,
    flatten,
    game,
    has_inversion,
    is_eligible,
    is_permutation,
    optimal_strike_set,
    pattern_class,
    perm_from_str,
    perm_to_str,
    prefix_flattening,
    validate_permutation,
)
from beststop.permutations import _perm_str, _shifts
from oracles import value_saturated_count

perms = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def all_perms(n):
    return list(permutations(range(1, n + 1)))


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 4, 1))
    assert not is_permutation(())
    assert not is_permutation((1, 1))


def test_validate_permutation():
    assert validate_permutation([3, 1, 2]) == (3, 1, 2)
    with pytest.raises(InvalidInputError):
        validate_permutation((0, 1))
    with pytest.raises(InvalidInputError):
        validate_permutation(())


def test_flatten():
    assert flatten((2, 5, 1, 6, 3)) == (2, 4, 1, 5, 3)
    assert flatten((10, 20)) == (1, 2)
    with pytest.raises(InvalidInputError):
        flatten(())
    with pytest.raises(InvalidInputError):
        flatten((1, 1))


@given(perms)
def test_flatten_fixes_permutations(p):
    assert flatten(p) == p


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
def test_flatten_preserves_relative_order(vals):
    f = flatten(vals)
    assert is_permutation(f)
    for i in range(len(vals)):
        for j in range(len(vals)):
            assert (vals[i] < vals[j]) == (f[i] < f[j])


def test_prefix_flattening():
    w = (2, 5, 1, 6, 3, 7, 4)
    for k in range(1, len(w) + 1):
        assert prefix_flattening(w, k) == oracles.flat(w[:k])
    with pytest.raises(InvalidInputError):
        prefix_flattening(w, 0)
    with pytest.raises(InvalidInputError):
        prefix_flattening(w, 8)




def test_is_eligible():
    assert is_eligible((1,))
    assert is_eligible((2, 1, 3))
    assert not is_eligible((2, 1))
    assert not is_eligible(())


def test_has_inversion():
    assert not has_inversion((1, 2, 3))
    assert has_inversion((1, 3, 2))
    assert not has_inversion((1,))


def test_value_saturated_count_examples():
    assert value_saturated_count((1, 3, 2, 4)) == 2
    assert value_saturated_count((2, 3, 1, 4)) == 3
    assert value_saturated_count((1, 2, 3)) == 3
    assert value_saturated_count((2, 1)) == 1
    assert value_saturated_count((3, 1, 2)) == 1
    assert value_saturated_count((2, 1, 3)) == 2
    assert value_saturated_count((1,)) == 1


def test_value_saturated_count_matches_naive():
    for n in range(1, 8):
        for w in all_perms(n):
            vals = {w[i - 1] for i in oracles.ltr_max_positions(w)}
            best = 0
            for i in range(1, n + 1):
                if all((n - j) in vals for j in range(i)):
                    best = i
            assert value_saturated_count(w) == best


@given(perms)
def test_saturation_full_iff_increasing(p):
    assert (value_saturated_count(p) == len(p)) == (not has_inversion(p))


PATTERNS3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_contains_pattern_matches_oracle():
    for n in range(1, 7):
        for w in all_perms(n):
            for rho in PATTERNS3:
                assert contains_pattern(w, rho) == oracles.contains(w, rho), (w, rho)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )
)
def test_interval_scan_matches_oracle(p):
    # containment and membership both step the label behind the children
    # of a prefix along p, checked here against the definition
    for rho in PATTERNS3:
        want = oracles.contains(p, rho)
        assert contains_pattern(p, rho) == want, (p, rho)
        assert PatternClass("one", (rho,)).is_member(p) == (not want), (p, rho)


def test_contains_pattern_general_path():
    # rank-4 patterns exercise the generic subsequence search
    for rho in [(2, 4, 1, 3), (1, 2, 3, 4), (4, 3, 2, 1)]:
        for w in all_perms(6):
            assert contains_pattern(w, rho) == oracles.contains(w, rho), (w, rho)


def test_contains_pattern_edges():
    assert contains_pattern((1,), (1,))
    assert not contains_pattern((1, 2), (1, 2, 3))
    with pytest.raises(InvalidInputError):
        contains_pattern((1, 1), (1,))


def test_pattern_class_lookup():
    assert pattern_class("321") is AV321
    assert pattern_class(AV321) is AV321
    assert pattern_class("none") is UNRESTRICTED
    assert pattern_class("unrestricted") is UNRESTRICTED
    assert pattern_class("all") is UNRESTRICTED
    with pytest.raises(InvalidInputError):
        pattern_class("331")


def test_class_sizes():
    from beststop import catalan

    for name, cls in CLASSES.items():
        if name == "none":
            assert cls.size(4) == 24
            assert not cls.is_catalan()
        else:
            assert cls.is_catalan()
            for n in range(1, 8):
                assert cls.size(n) == catalan(n)
    assert PatternClass("pair", ((1, 3, 2), (2, 1, 3))).size(5) is None
    for bad in [(1, 2, 3, 4), (1, 2, 2)]:
        with pytest.raises(InvalidInputError):
            PatternClass("bad", ((3, 2, 1), bad))


def test_membership_matches_oracle():
    # the two-pattern classes step a union label per entry
    for name, forbidden in oracles.FORBIDDEN.items():
        cls = PatternClass(name, forbidden)
        for n in range(1, 6):
            want = set(oracles.members(name, n))
            got = {w for w in all_perms(n) if cls.is_member(w)}
            assert got == want, (name, n)


def test_enumerate_class_matches_oracle():
    for name in CLASSES:
        for n in range(1, 7):
            got = sorted(enumerate_class(CLASSES[name], n))
            assert got == sorted(oracles.members(name, n)), (name, n)


def test_enumerate_class_caps(monkeypatch):
    # every listing meets the walk's one member cap, read off the game's
    # member count before the first member, whether or not the class size
    # is known
    import beststop.optimizer

    lazy = PatternClass("pair", ((1, 3, 2), (2, 1, 3)))
    monkeypatch.setattr(beststop.optimizer, "DEFAULT_TREE_CAP", 10)
    with pytest.raises(LimitError, match="class none has 24 members at rank 4"):
        next(enumerate_class(UNRESTRICTED, 4))
    monkeypatch.setattr(beststop.optimizer, "DEFAULT_TREE_CAP", 3)
    with pytest.raises(LimitError, match="class pair has 8 members at rank 4"):
        next(enumerate_class(lazy, 4))
    monkeypatch.setattr(beststop.optimizer, "DEFAULT_TREE_CAP", 8)
    assert len(list(enumerate_class(lazy, 4))) == 8


def test_enumerate_class_streams_generating_tree_order():
    # depth first with children in ascending value is the order of each
    # member's code c_1..c_n, c_k one plus the number of earlier entries
    # below entry k (the value that extend appends at step k)
    def code(w):
        return tuple(1 + sum(u < v for u in w[:k]) for k, v in enumerate(w))

    for name, cls in CLASSES.items():
        for n in range(1, 8):
            want = sorted(oracles.members(name, n), key=code)
            assert list(enumerate_class(cls, n)) == want, (name, n)


def test_enumerate_class_holds_ranks_up_to_a_byte():
    # enumerate_class holds its prefixes as bytes: the class whose only
    # member at each rank is the decreasing order, of no known size, is
    # enumerated at rank 255 and refused, before its first member, past it
    only_321 = PatternClass("only-321", tuple(p for p in permutations((1, 2, 3))
                                              if p != (3, 2, 1)))
    assert list(enumerate_class(only_321, 255)) == [tuple(range(255, 0, -1))]
    with pytest.raises(LimitError, match="rank 256 is past 255"):
        next(enumerate_class(only_321, 256))


@given(st.integers(0, 254).flatmap(lambda k: st.permutations(list(range(1, k + 1))).map(tuple)),
       st.data())
def test_shifts_step_is_extend(p, data):
    # the walks' step on bytes, by the tables of any rank the child fits
    c = data.draw(st.integers(1, len(p) + 1))
    shift, last = _shifts(data.draw(st.integers(len(p) + 1, 255)))
    assert tuple(bytes(p).translate(shift[c]) + last[c]) == extend(p, c)


def test_shifts_refused_past_a_byte():
    shift, last = _shifts(255)
    assert len(shift) == len(last) == 256
    with pytest.raises(LimitError, match="rank 256 is past 255"):
        _shifts(256)


def test_extend():
    assert extend((2, 1, 3), 2) == (3, 1, 4, 2)
    assert extend((), 1) == (1,)
    with pytest.raises(InvalidInputError):
        extend((1, 2), 4)


@given(perms, st.data())
def test_extend_inverts_prefix_flattening(p, data):
    c = data.draw(st.integers(1, len(p) + 1))
    child = extend(p, c)
    assert is_permutation(child)
    assert child[-1] == c
    assert prefix_flattening(child, len(p)) == p


def test_child_indices_matches_definition():
    # two-pattern classes take the union of intervals; Av(123, 321) is empty
    # from rank 5, so its rank-4 members have no children at all
    classes = list(CLASSES.values()) + [
        PatternClass("pair", ((1, 3, 2), (2, 1, 3))),
        PatternClass("mono", ((1, 2, 3), (3, 2, 1))),
    ]
    for cls in classes:
        for n in range(1, 8):
            for w in all_perms(n):
                if any(oracles.contains(w, rho) for rho in cls.forbidden):
                    continue
                want = {
                    c
                    for c in range(1, n + 2)
                    if not any(
                        oracles.contains(extend(w, c), rho) for rho in cls.forbidden
                    )
                }
                assert child_indices(w, cls) == want, (cls.name, w)


def test_tree_walks_skip_the_checks(monkeypatch):
    # enumerate_class and build extend only prefixes they built, so they
    # never validate, test membership or call the checked child_indices;
    # they step each child's label from its parent's, so they never walk
    # a prefix's label from the root
    import beststop.permutations
    from beststop.prefixtree import build

    def refuse(*args):
        raise AssertionError("a tree walk re-checked its own prefix")

    monkeypatch.setattr(PatternClass, "is_member", refuse)
    monkeypatch.setattr(beststop.permutations, "validate_permutation", refuse)
    monkeypatch.setattr(beststop.permutations, "child_indices", refuse)
    monkeypatch.setattr(beststop.permutations, "_label", refuse)
    assert build(AV321, 6).total == 132
    assert len(list(enumerate_class(AV312, 6))) == 132
    assert len(optimal_strike_set(game(AV312, 6)).strike_set.members) == 76


def test_enumeration_is_freed_by_reference_counting(monkeypatch):
    # a finished enumeration, and one the walk's cap refused before its
    # first member, must leave no reference cycle to the cyclic collector
    import beststop.optimizer

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert len(list(enumerate_class(AV321, 8))) == 1430
        assert gc.collect() == 0
        monkeypatch.setattr(beststop.optimizer, "DEFAULT_TREE_CAP", 10)
        try:
            next(enumerate_class(PatternClass("pair", oracles.FORBIDDEN["pair"]), 9))
        except LimitError:
            pass
        else:
            raise AssertionError("the cap did not refuse the enumeration")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_child_indices_rejects_non_member():
    with pytest.raises(InvalidInputError):
        child_indices((3, 2, 1), AV321)
    # (1, 3, 2) avoids (2, 1, 3) but not (1, 3, 2)
    with pytest.raises(InvalidInputError):
        child_indices((1, 3, 2), PatternClass("pair", ((1, 3, 2), (2, 1, 3))))
    assert child_indices((), AV312) == {1}


def test_perm_str_round_trip():
    assert perm_to_str((2, 5, 1, 6, 3, 7, 4)) == "2516374"
    assert perm_from_str("2516374") == (2, 5, 1, 6, 3, 7, 4)
    long = tuple(range(1, 12))
    assert perm_from_str(perm_to_str(long)) == long
    assert "," in perm_to_str(long)
    # names read off the numeral table up to size 255, and past it too
    for n in (255, 256, 300):
        p = tuple(range(n, 0, -1))
        assert perm_to_str(p) == ",".join(str(v) for v in p)
        assert perm_from_str(perm_to_str(p)) == p
    for bad in ("", "1,x", "102"):
        with pytest.raises(InvalidInputError):
            perm_from_str(bad)


@given(
    st.integers(min_value=1, max_value=14).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )
)
def test_perm_str_round_trip_property(p):
    assert perm_from_str(perm_to_str(p)) == p
    # digits up to size 9, a comma join past it, for tuples and for bytes
    want = ("" if len(p) <= 9 else ",").join(map(str, p))
    assert perm_to_str(p) == _perm_str(bytes(p)) == want
