from __future__ import annotations

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
    complement,
    contains_pattern,
    enumerate_class,
    extend,
    flatten,
    has_inversion,
    is_eligible,
    is_permutation,
    ltr_maxima,
    pattern_class,
    perm_from_str,
    perm_to_str,
    prefix_flattening,
    reverse,
    validate_permutation,
    value_saturated_count,
)

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


@given(perms)
def test_reverse_complement_involutions(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p


def test_ltr_maxima_matches_oracle():
    for n in range(1, 7):
        for w in all_perms(n):
            assert list(ltr_maxima(w)) == oracles.ltr_max_positions(w)


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
    for name in CLASSES:
        cls = CLASSES[name]
        for n in range(1, 6):
            want = set(oracles.members(name, n))
            got = {w for w in all_perms(n) if cls.is_member(w)}
            assert got == want


def test_enumerate_class_matches_oracle():
    for name in CLASSES:
        for n in range(1, 7):
            got = sorted(enumerate_class(CLASSES[name], n))
            assert got == sorted(oracles.members(name, n)), (name, n)


def test_enumerate_class_caps():
    with pytest.raises(LimitError):
        list(enumerate_class(UNRESTRICTED, 4, cap=10))
    # unknown-size classes only hit the cap during iteration
    lazy = PatternClass("pair", ((1, 3, 2), (2, 1, 3)))
    with pytest.raises(LimitError):
        list(enumerate_class(lazy, 4, cap=3))
    assert len(list(enumerate_class(lazy, 4, cap=100))) == 8


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


def test_child_indices_rejects_non_member():
    with pytest.raises(InvalidInputError):
        child_indices((3, 2, 1), AV321)
    assert child_indices((), AV312) == {1}


def test_perm_str_round_trip():
    assert perm_to_str((2, 5, 1, 6, 3, 7, 4)) == "2516374"
    assert perm_from_str("2516374") == (2, 5, 1, 6, 3, 7, 4)
    long = tuple(range(1, 12))
    assert perm_from_str(perm_to_str(long)) == long
    assert "," in perm_to_str(long)
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
