"""Exact win/total bookkeeping for game values.

A Tally is an unreduced pair (wins, total).  Tallies from sibling subtrees
combine with the mediant, (a/b) (+) (c/d) = (a+c)/(b+d), which is how success
counts aggregate over a partition of the sample space.  Tallies are never
auto-reduced; reduction is a deliberate conversion to Fraction (as_rational).

Also home to the Catalan / ballot / shifted-ballot number families that give
the denominators (and closed-form numerators) throughout the package.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import InvalidInputError


@dataclass(frozen=True)
class Tally:
    """Unreduced (wins, total) count.  total >= 1 and 0 <= wins <= total.

    >>> str(Tally(23, 42))
    '23/42'
    """

    wins: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise InvalidInputError(f"tally total must be positive, got {self.total}")
        if not 0 <= self.wins <= self.total:
            raise InvalidInputError(
                f"tally wins must lie in [0, total], got {self.wins}/{self.total}"
            )

    def as_rational(self) -> Fraction:
        return Fraction(self.wins, self.total)

    def __str__(self) -> str:
        return f"{self.wins}/{self.total}"


def cmp_as_rational(x: Tally, y: Tally) -> int:
    """Compare two tallies as rationals by cross-multiplication.

    Returns -1, 0, or 1.  Avoids constructing Fractions in hot loops.

    >>> cmp_as_rational(Tally(2, 5), Tally(4, 10))
    0
    """
    lhs = x.wins * y.total
    rhs = y.wins * x.total
    if lhs < rhs:
        return -1
    if lhs > rhs:
        return 1
    return 0


@functools.lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number, C(2n, n) / (n + 1).

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InvalidInputError(f"catalan expects n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    """Ballot number ((k+1)/(n+1)) * C(2n-k, n) for 0 <= k <= n.

    Counts completions of an increasing prefix of length k inside the
    321-avoiding class at rank n.  ballot(n, 0) == ballot(n, 1) == catalan(n)
    and ballot(n, n) == 1.

    >>> ballot(6, 3)
    48
    """
    if k < 0 or k > n:
        raise InvalidInputError(f"ballot expects 0 <= k <= n, got n={n}, k={k}")
    return (k + 1) * comb(2 * n - k, n) // (n + 1)


def ballot_row(n: int, k: int) -> Iterator[int]:
    """ballot(n, k), ballot(n, k + 1), ..., ballot(n, n), each stepped from
    the one before with one multiply and one exact divide.

    >>> list(ballot_row(6, 3))
    [48, 20, 6, 1]
    """
    b = ballot(n, k)
    for j in range(k, n):
        yield b
        b = b * (j + 2) * (n - j) // ((j + 1) * (2 * n - j))
    yield b


def shifted_ballot(i: int, n: int, k: int) -> int:
    """Ballot number with n shifted down by i; out-of-range indices give 0.

    Equals ballot(n - i, k) when that is defined and 0 otherwise, matching
    the convention that binomials with negative indices vanish.

    >>> shifted_ballot(2, 7, 2)
    28
    >>> shifted_ballot(6, 4, 1)
    0
    """
    if i < 0:
        raise InvalidInputError(f"shifted_ballot expects i >= 0, got {i}")
    m = n - i
    if m < 0 or k < 0 or k > m:
        return 0
    return ballot(m, k)


def decimal_str(value: Fraction) -> str:
    """Truncated decimal rendering of an exact rational to 13 places, for
    display only.

    Trailing zeros are stripped (an exactly terminating value prints in
    full), so the output is approximate whenever digits were cut off.

    >>> decimal_str(Fraction(31, 64))
    '0.484375'
    """
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    whole, rem = divmod(mag.numerator, mag.denominator)
    scaled = rem * 10**13 // mag.denominator
    digits = f"{scaled:013d}".rstrip("0")
    if not digits:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{digits}"
