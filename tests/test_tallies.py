from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beststop import (
    InvalidInputError,
    Tally,
    ballot,
    catalan,
    cmp_as_rational,
    decimal_str,
    shifted_ballot,
)
from beststop.tallies import ballot_row

# independent reference values (OEIS A000108)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


def test_catalan_reference():
    assert tuple(catalan(i) for i in range(13)) == CATALAN


def test_catalan_rejects_negative():
    with pytest.raises(InvalidInputError):
        catalan(-1)


def test_ballot_edges():
    for n in range(1, 30):
        assert ballot(n, 0) == catalan(n)
        assert ballot(n, 1) == catalan(n)
        assert ballot(n, n) == 1
    assert ballot(4, 2) == 9
    assert ballot(6, 3) == 48


def test_ballot_row_matches_ballot():
    for n in range(0, 60):
        for k in range(0, n + 1):
            assert list(ballot_row(n, k)) == [ballot(n, j) for j in range(k, n + 1)], (n, k)


def test_ballot_recurrence():
    # b(n, k) = b(n-1, k-1) + b(n, k+1), the defining lattice-path step
    for n in range(2, 40):
        for k in range(1, n):
            assert ballot(n, k) == ballot(n - 1, k - 1) + ballot(n, k + 1)


def test_ballot_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        ballot(3, 4)
    with pytest.raises(InvalidInputError):
        ballot(3, -1)


def test_shifted_ballot_support():
    assert shifted_ballot(2, 7, 2) == ballot(5, 2)
    assert shifted_ballot(0, 6, 3) == ballot(6, 3)
    # vanishes exactly when the shifted row cannot hold column k
    for i in range(0, 10):
        for n in range(0, 10):
            for k in range(0, 10):
                v = shifted_ballot(i, n, k)
                if k <= n - i:
                    assert v == ballot(n - i, k)
                else:
                    assert v == 0
    with pytest.raises(InvalidInputError):
        shifted_ballot(-1, 5, 1)


def test_tally_basics():
    t = Tally(23, 42)
    assert str(t) == "23/42"
    assert t.as_rational() == Fraction(23, 42)
    with pytest.raises(InvalidInputError):
        Tally(-1, 4)
    with pytest.raises(InvalidInputError):
        Tally(5, 4)
    with pytest.raises(InvalidInputError):
        Tally(0, 0)


def test_cmp_as_rational():
    assert cmp_as_rational(Tally(2, 5), Tally(4, 10)) == 0
    assert cmp_as_rational(Tally(1, 3), Tally(1, 2)) == -1
    assert cmp_as_rational(Tally(1, 2), Tally(1, 3)) == 1


def test_decimal_str_truncates():
    assert decimal_str(Fraction(23, 42)) == "0.547619047619"
    assert decimal_str(Fraction(31, 64)) == "0.484375"
    assert decimal_str(Fraction(3, 4)) == "0.75"
    assert decimal_str(Fraction(1, 4)) == "0.25"
    assert decimal_str(Fraction(1, 3)) == "0.3333333333333"
    # truncation, not rounding
    assert decimal_str(Fraction(2, 3)) == "0.6666666666666"
    assert decimal_str(Fraction(2, 1)) == "2"
    assert decimal_str(Fraction(-1, 8)) == "-0.125"


tallies = st.builds(
    lambda total, wins: Tally(wins % (total + 1), total),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


@given(tallies, tallies)
def test_mediant_lies_between(x, y):
    # the mediant of sibling tallies: wins and totals add
    lo, hi = sorted((x.as_rational(), y.as_rational()))
    m = Tally(x.wins + y.wins, x.total + y.total).as_rational()
    assert lo <= m <= hi


@given(tallies, tallies)
def test_cmp_matches_fractions(x, y):
    want = (x.as_rational() > y.as_rational()) - (x.as_rational() < y.as_rational())
    assert cmp_as_rational(x, y) == want


@given(tallies)
def test_parse_str_round_trip(t):
    # the wins/total text names the tally exactly, unreduced
    wins, total = str(t).split("/")
    assert Tally(int(wins), int(total)) == t
