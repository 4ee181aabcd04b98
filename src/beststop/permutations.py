"""Permutations in one-line notation and pattern-restricted classes.

A permutation of rank n is a tuple containing each of 1..n exactly once,
e.g. (2, 5, 1, 6, 3, 7, 4).  Positions and values are 1-based throughout.
Prefix flattenings (the relative order of the first k entries) are what a
player observes during the game, so most operations act on those.

A class avoids one or more patterns of size 3 (or none at all).  Classes
are enumerated through their generating tree: a member of rank k+1 is
obtained from its rank-k prefix flattening by appending one new value c
and shifting the old values >= c up by one.  One interval rule gives the
allowed values c for every such class (see child_indices), so no candidate
child is built or searched.  For the single-pattern classes every member
extends, so the tree of prefixes at rank N contains the whole class at
every smaller rank and grows like the Catalan numbers rather than n!.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

from .errors import InvalidInputError, LimitError
from .tallies import catalan

Perm = tuple[int, ...]

# Ceiling on the number of members a single enumeration may visit.
DEFAULT_ENUM_CAP = 5_000_000


def is_permutation(entries: Sequence[int]) -> bool:
    """True when entries is a permutation of 1..len(entries).

    >>> is_permutation((2, 1, 3))
    True
    >>> is_permutation((2, 4, 1))
    False
    """
    n = len(entries)
    return n > 0 and sorted(entries) == list(range(1, n + 1))


def validate_permutation(entries: Sequence[int]) -> Perm:
    p = tuple(entries)
    if not is_permutation(p):
        raise InvalidInputError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def flatten(seq: Sequence[int]) -> Perm:
    """Relative-order pattern of a sequence of distinct integers.

    >>> flatten((2, 5, 1, 6, 3))
    (2, 4, 1, 5, 3)
    """
    entries = tuple(seq)
    if not entries:
        raise InvalidInputError("cannot flatten an empty sequence")
    if len(set(entries)) != len(entries):
        raise InvalidInputError(f"entries are not distinct: {entries!r}")
    order = {v: i for i, v in enumerate(sorted(entries), start=1)}
    return tuple(order[v] for v in entries)


def prefix_flattening(pi: Sequence[int], k: int) -> Perm:
    """Flattening of the first k entries, 1 <= k <= len(pi).

    >>> prefix_flattening((2, 5, 1, 6, 3, 7, 4), 4)
    (2, 3, 1, 4)
    """
    if not 1 <= k <= len(pi):
        raise InvalidInputError(f"prefix length {k} out of range 1..{len(pi)}")
    return flatten(pi[:k])


def reverse(pi: Perm) -> Perm:
    return pi[::-1]


def complement(pi: Perm) -> Perm:
    n = len(pi)
    return tuple(n + 1 - v for v in pi)


def ltr_maxima(pi: Sequence[int]) -> tuple[int, ...]:
    """Ascending positions of the left-to-right maxima.

    >>> ltr_maxima((2, 5, 1, 6, 3, 7, 4))
    (1, 2, 4, 6)
    """
    best = 0
    out: list[int] = []
    for i, v in enumerate(pi, start=1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def is_eligible(p: Sequence[int]) -> bool:
    """A prefix is eligible when its last entry is a left-to-right maximum,
    i.e. the flattened prefix ends in its own maximum."""
    return len(p) > 0 and p[-1] == len(p)


def has_inversion(p: Sequence[int]) -> bool:
    """True unless p is increasing."""
    return any(p[i] > p[i + 1] for i in range(len(p) - 1))


def value_saturated_count(p: Sequence[int]) -> int:
    """Largest i such that the top i values k, k-1, ..., k-i+1 of the
    rank-k prefix are all left-to-right maxima (0 if even value k is not).

    Equals len(p) exactly when p is increasing.

    >>> value_saturated_count((1, 3, 2, 4))
    2
    >>> value_saturated_count((2, 3, 1, 4))
    3
    """
    k = len(p)
    vals = {p[i - 1] for i in ltr_maxima(p)}
    i = 0
    while i < k and (k - i) in vals:
        i += 1
    return i


# --- pattern containment ---------------------------------------------------
#
# The six rank-3 patterns get dedicated scans; everything else falls back to
# a pruned subsequence search.  The scans for 231/312/213 reuse the 132 scan
# through the reverse/complement symmetries of the permutation square.


def _contains_123(pi: Perm) -> bool:
    low: int | None = None
    mid: int | None = None
    for v in pi:
        if mid is not None and v > mid:
            return True
        if low is None or v < low:
            low = v
        elif v > low and (mid is None or v < mid):
            mid = v
    return False


def _contains_321(pi: Perm) -> bool:
    high: int | None = None
    mid: int | None = None
    for v in pi:
        if mid is not None and v < mid:
            return True
        if high is None or v > high:
            high = v
        elif v < high and (mid is None or v > mid):
            mid = v
    return False


def _contains_132(pi: Perm) -> bool:
    # occurrence positions i < j < k with pi[i] < pi[k] < pi[j];
    # if any witness i works, the prefix minimum works
    n = len(pi)
    if n < 3:
        return False
    lowest = pi[0]
    for j in range(1, n - 1):
        if lowest < pi[j]:
            for k in range(j + 1, n):
                if lowest < pi[k] < pi[j]:
                    return True
        if pi[j] < lowest:
            lowest = pi[j]
    return False


_SIZE3 = {
    (1, 2, 3): _contains_123,
    (3, 2, 1): _contains_321,
    (1, 3, 2): _contains_132,
    (2, 3, 1): lambda pi: _contains_132(reverse(pi)),
    (3, 1, 2): lambda pi: _contains_132(complement(pi)),
    (2, 1, 3): lambda pi: _contains_132(reverse(complement(pi))),
}


def _contains_general(pi: Perm, rho: Perm) -> bool:
    m = len(rho)

    def extendable(chosen: tuple[int, ...], v: int) -> bool:
        t = len(chosen)
        return all((chosen[s] < v) == (rho[s] < rho[t]) for s in range(t))

    def search(start: int, chosen: tuple[int, ...]) -> bool:
        t = len(chosen)
        if t == m:
            return True
        for j in range(start, len(pi) - (m - t) + 1):
            if extendable(chosen, pi[j]):
                if search(j + 1, chosen + (pi[j],)):
                    return True
        return False

    return search(0, ())


def contains_pattern(pi: Sequence[int], rho: Sequence[int]) -> bool:
    """Does pi contain rho as a (classical) pattern?

    >>> contains_pattern((5, 7, 4, 2, 3, 9, 6, 1, 8), (3, 2, 1))
    True
    >>> contains_pattern((5, 4, 3, 2, 1), (1, 2, 3))
    False
    """
    p = validate_permutation(pi)
    r = validate_permutation(rho)
    if len(r) > len(p):
        return False
    if len(r) == 1:
        return True
    fn = _SIZE3.get(r)
    if fn is not None:
        return fn(p)
    return _contains_general(p, r)


# --- pattern classes -------------------------------------------------------


@dataclass(frozen=True)
class PatternClass:
    """A set of permutations avoiding every pattern in `forbidden`.

    Every forbidden pattern is a permutation of size 3, which is what
    child_indices' interval rule relies on; several patterns may be
    combined, and an empty tuple gives all permutations.
    """

    name: str
    forbidden: tuple[Perm, ...]

    def __post_init__(self) -> None:
        for rho in self.forbidden:
            if len(rho) != 3 or not is_permutation(rho):
                raise InvalidInputError(
                    f"class {self.name}: forbidden pattern {rho!r} is not "
                    "a permutation of size 3"
                )

    def is_member(self, pi: Sequence[int]) -> bool:
        p = validate_permutation(pi)
        return all(not contains_pattern(p, rho) for rho in self.forbidden)

    def is_catalan(self) -> bool:
        return len(self.forbidden) == 1

    def size(self, n: int) -> int | None:
        """Exact class size at rank n when known a priori, else None."""
        if n < 1:
            raise InvalidInputError(f"rank must be >= 1, got {n}")
        if not self.forbidden:
            return factorial(n)
        if self.is_catalan():
            return catalan(n)
        return None


UNRESTRICTED = PatternClass("none", ())
AV231 = PatternClass("231", ((2, 3, 1),))
AV132 = PatternClass("132", ((1, 3, 2),))
AV321 = PatternClass("321", ((3, 2, 1),))
AV312 = PatternClass("312", ((3, 1, 2),))
AV123 = PatternClass("123", ((1, 2, 3),))
AV213 = PatternClass("213", ((2, 1, 3),))

CLASSES = {
    c.name: c for c in (AV231, AV132, AV321, AV312, AV123, AV213, UNRESTRICTED)
}


def pattern_class(name: str) -> PatternClass:
    key = "none" if name in ("unrestricted", "all") else name
    try:
        return CLASSES[key]
    except KeyError:
        raise InvalidInputError(
            f"unknown class {name!r}; expected one of {sorted(CLASSES)}"
        ) from None


def extend(p: Sequence[int], c: int) -> Perm:
    """Append value c as a new last entry, shifting old values >= c up by 1.

    >>> extend((2, 1, 3), 2)
    (3, 1, 4, 2)
    """
    k = len(p)
    if not 1 <= c <= k + 1:
        raise InvalidInputError(f"child index {c} out of range 1..{k + 1}")
    return tuple(v if v < c else v + 1 for v in p) + (c,)


def child_indices(p: Sequence[int], cls: PatternClass) -> set[int]:
    """Values c for which extend(p, c) stays inside cls.

    A new occurrence of a forbidden pattern (a, b, r) must end at the new
    entry c, after some pair u before v in p ordered like (a, b).  Such a
    pair rules out one interval of values for c: [1, min(u, v)] when r = 1,
    (min(u, v), max(u, v)] when r = 2 and (max(u, v), k + 1] when r = 3.
    Scanning p with the earlier values kept sorted, each v needs only the
    partner whose interval contains all the others, so the union over every
    pair and pattern costs O(k log k) per pattern.

    >>> sorted(child_indices((2, 1, 3), AV321))
    [2, 3, 4]
    >>> sorted(child_indices((2, 1, 3), AV312))
    [1, 3, 4]
    >>> sorted(child_indices((2, 1, 3), AV231))
    [3, 4]
    """
    if len(p) == 0:
        return {1}
    perm = validate_permutation(p)
    if not cls.is_member(perm):
        raise InvalidInputError(f"{perm!r} is not a member of class {cls.name}")
    k = len(perm)
    # difference array over the values 1..k+1 a new entry can take
    depth = [0] * (k + 3)
    for a, b, r in cls.forbidden:
        rising = a < b
        seen: list[int] = []
        for v in perm:
            pos = bisect_left(seen, v)
            # an earlier partner u with (u < v) == rising exists
            if pos > 0 if rising else pos < len(seen):
                if r == 2:
                    u = seen[0] if rising else seen[-1]
                else:
                    u = seen[pos - 1] if rising else seen[pos]
                lo, hi = (u, v) if rising else (v, u)
                first, last = ((1, lo), (lo + 1, hi), (hi + 1, k + 1))[r - 1]
                depth[first] += 1
                depth[last + 1] -= 1
            insort(seen, v)
    out = set()
    covered = 0
    for c in range(1, k + 2):
        covered += depth[c]
        if covered == 0:
            out.add(c)
    return out


def enumerate_class(
    cls: PatternClass, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Perm]:
    """Stream every member of cls at rank n, in generating-tree order.

    Raises LimitError before any work when the class size is known to
    exceed cap, or during iteration once cap members have been produced.
    """
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
    known = cls.size(n)
    if known is not None and known > cap:
        raise LimitError(
            f"class {cls.name} has {known} members at rank {n}, over the cap {cap}"
        )
    count = 0

    def walk(p: Perm) -> Iterator[Perm]:
        nonlocal count
        if len(p) == n:
            count += 1
            if count > cap:
                raise LimitError(
                    f"enumeration of class {cls.name} at rank {n} exceeded cap {cap}"
                )
            yield p
            return
        for c in sorted(child_indices(p, cls)):
            yield from walk(extend(p, c))

    yield from walk((1,))


def perm_to_str(p: Sequence[int]) -> str:
    """Compact digit form for rank <= 9, comma-separated beyond.

    >>> perm_to_str((2, 5, 1, 6, 3, 7, 4))
    '2516374'
    >>> perm_to_str((10, 2, 1, 3, 4, 5, 6, 7, 8, 9))
    '10,2,1,3,4,5,6,7,8,9'
    """
    perm = validate_permutation(p)
    if len(perm) <= 9:
        return "".join(str(v) for v in perm)
    return ",".join(str(v) for v in perm)


def perm_from_str(text: str) -> Perm:
    """Inverse of perm_to_str.

    >>> perm_from_str('2516374')
    (2, 5, 1, 6, 3, 7, 4)
    """
    s = text.strip()
    if not s:
        raise InvalidInputError("empty permutation string")
    try:
        if "," in s:
            entries = tuple(int(part) for part in s.split(","))
        else:
            entries = tuple(int(ch) for ch in s)
    except ValueError:
        raise InvalidInputError(f"cannot parse permutation from {text!r}") from None
    return validate_permutation(entries)
