"""Permutations in one-line notation and pattern-restricted classes.

A permutation of rank n is a tuple containing each of 1..n exactly once,
e.g. (2, 5, 1, 6, 3, 7, 4).  Positions and values are 1-based throughout.
Prefix flattenings (the relative order of the first k entries) are what a
player observes during the game, so most operations act on those.

A class avoids one or more patterns of size 3 (or none at all).  Classes
are enumerated through their generating tree: a member of rank k+1 is
obtained from its rank-k prefix flattening by appending one new value c
and shifting the old values >= c up by one.  One bitmask label of a
prefix's forbidden values, stepped from parent to child by the one entry
the child adds, answers which values c a prefix allows (child_indices) and
whether an order is a member (contains_pattern, PatternClass.is_member).
The optimizer's sweep steps it across the label DAG, never rescanning a
prefix, and a point query steps it along one order.  extend is the
validated child step; every walk down the tree holds a prefix as bytes and
takes the same step by _shifts's tables, and enumerate_class lists the
leaves of the game's one walk (optimizer.Game.walk).  For the
single-pattern classes every member extends, so the tree of prefixes at
rank N contains the whole class at every smaller rank and grows like the
Catalan numbers rather than n!.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

from .errors import WALK_MAX_RANK, InvalidInputError, LimitError
from .tallies import catalan

Perm = tuple[int, ...]


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


def is_eligible(p: Sequence[int]) -> bool:
    """A prefix is eligible when its last entry is a left-to-right maximum,
    i.e. the flattened prefix ends in its own maximum."""
    return len(p) > 0 and p[-1] == len(p)


def has_inversion(p: Sequence[int]) -> bool:
    """True unless p is increasing."""
    return any(p[i] > p[i + 1] for i in range(len(p) - 1))


# --- pattern containment ---------------------------------------------------
#
# The label of a member p of size k is an int whose bit x (1 <= x <= k + 1)
# is set when appending x, with the values >= x shifted up, would complete
# a forbidden pattern; p's children are its clear bits.  For a pattern
# (a, b, r) such an occurrence ends at x, and its first two entries u, v
# (in that order) are ordered like a and b.  They complete it exactly when
# x lies in [1, min(u, v)] for r = 1, (min(u, v), max(u, v)] for r = 2 or
# (max(u, v), k + 1] for r = 3, and each v needs only the partner u whose
# interval contains all the others.  extend(p, c) meets x as p did, with
# p's gap c split at the new entry, so its label is p's with bit c copied
# to c + 1 and the bits above shifted up one, plus the one interval per
# pattern that the new entry opens (_opens).  The tree walks carry the
# label down; a point query (_label) steps it along one permutation, which
# contains a pattern exactly when one of its entries lands on a set bit.
# West, Discrete Math. 146 (1995); Barcucci, Del Lungo, Pergola and
# Pinzani, J. Difference Equ. Appl. 5 (1999).


def _opens(forbidden: tuple[Perm, ...], k: int, c: int) -> int:
    """The label bits that the new entry of extend(p, c) opens, for p of
    size k and 1 <= c <= k + 1.

    The earlier entries of extend(p, c) hold every value of 1..k+1 but c,
    so the partner is fixed.  For (a, b, r) with a < b it exists when
    c > 1 and is 1 for r = 2, else c - 1; with a > b it exists when
    c < k + 1 and is k + 1 for r = 2, else c + 1.
    """
    bits = 0
    for a, b, r in forbidden:
        if a < b:
            if c == 1:
                continue
            lo, hi = (1 if r == 2 else c - 1), c
        else:
            if c == k + 1:
                continue
            lo, hi = c, (k + 1 if r == 2 else c + 1)
        first, last = ((1, lo), (lo + 1, hi), (hi + 1, k + 2))[r - 1]
        bits |= (2 << last) - (1 << first)
    return bits


def _opened(cls: PatternClass, n: int) -> list[list[int]]:
    """The tree walks' table: opened[k][c] = _opens(cls.forbidden, k, c)."""
    return [[0] + [_opens(cls.forbidden, k, c) for c in range(1, k + 2)]
            for k in range(n)]


def _free(label: int, k: int) -> list[int]:
    """The children of a size-k member with this label, ascending."""
    return [c for c in range(1, k + 2) if not label >> c & 1]


def _relabel(label: int, c: int, opens: int) -> int:
    """The label of extend(p, c) from p's label and the bits c opens."""
    return (label & ((2 << c) - 1)) | (label >> c << (c + 1)) | opens


def _label(perm: Perm, forbidden: tuple[Perm, ...]) -> int | None:
    """The label of perm, stepped entry by entry from the empty prefix's 0,
    or None at the first entry whose bit is already set (perm contains a
    forbidden pattern).  Each entry's rank among those before it, its c,
    is found in the earlier values kept sorted."""
    label = 0
    seen: list[int] = []
    for k, v in enumerate(perm):
        c = bisect_left(seen, v) + 1
        if label >> c & 1:
            return None
        label = _relabel(label, c, _opens(forbidden, k, c))
        insort(seen, v)
    return label


def _contains_general(pi: Perm, rho: Perm) -> bool:
    m = len(rho)

    def search(start: int, chosen: tuple[int, ...]) -> bool:
        t = len(chosen)
        return t == m or any(
            search(j + 1, chosen + (pi[j],))
            for j in range(start, len(pi) - (m - t) + 1)
            if all((chosen[s] < pi[j]) == (rho[s] < rho[t]) for s in range(t))
        )

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
    return _label(p, (r,)) is None if len(r) == 3 else _contains_general(p, r)


# --- pattern classes -------------------------------------------------------


@dataclass(frozen=True)
class PatternClass:
    """A set of permutations avoiding every pattern in `forbidden`.

    Every forbidden pattern is a permutation of size 3, which is what the
    label relies on; several patterns may be combined, and an empty tuple
    gives all permutations.
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
        return _label(p, self.forbidden) is not None

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


def pattern_class(name: str | PatternClass) -> PatternClass:
    """The class with this name; a PatternClass is returned unchanged."""
    if isinstance(name, PatternClass):
        return name
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
    return tuple([v + (v >= c) for v in p]) + (c,)


def _shifts(n: int) -> tuple[list[bytes], list[bytes]]:
    """extend for a walk of rank n that holds a prefix as bytes, one byte an
    entry: the child of p by c is p.translate(shift[c]) + last[c].  shift[c]
    raises each entry >= c by one; no entry reaches 255 before a child is
    made, so that byte maps to itself.  LimitError past WALK_MAX_RANK."""
    if n > WALK_MAX_RANK:
        raise LimitError(f"rank {n} is past {WALK_MAX_RANK}, the largest rank "
                         "whose prefixes the walk holds as bytes")
    shift = [b""] + [bytes(range(c)) + bytes(range(c + 1, 256)) + b"\xff"
                     for c in range(1, n + 1)]
    return shift, [bytes((c,)) for c in range(n + 1)]


def child_indices(p: Sequence[int], cls: PatternClass) -> set[int]:
    """Values c for which extend(p, c) stays inside cls.

    A new occurrence of a forbidden pattern must end at the new entry c,
    so c is allowed unless it is a set bit of p's label (see _label).

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
    label = _label(perm, cls.forbidden)
    if label is None:
        raise InvalidInputError(f"{perm!r} is not a member of class {cls.name}")
    return set(_free(label, len(perm)))


def enumerate_class(cls: PatternClass, n: int) -> Iterator[Perm]:
    """Stream every member of cls at rank n, in generating-tree order (depth
    first, children in ascending value): the leaves of the rank-n game's
    walk, under its caps (see optimizer.Game.walk)."""
    from .optimizer import game  # optimizer imports this module

    for p, _, _, _, _ in game(cls, n).walk(inner=False):
        yield tuple(p)


def perm_to_str(p: Sequence[int]) -> str:
    """Compact digit form for rank <= 9, comma-separated beyond.

    >>> perm_to_str((2, 5, 1, 6, 3, 7, 4))
    '2516374'
    >>> perm_to_str((10, 2, 1, 3, 4, 5, 6, 7, 8, 9))
    '10,2,1,3,4,5,6,7,8,9'
    """
    return _perm_str(validate_permutation(p))


# byte v to the ASCII digit of v, for entries up to 9; other bytes map to
# themselves
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# the numerals of 0..k, k the size of the longest name asked for so far.
# It is made on demand, since 256 numerals made at import raised the peak
# RSS of a run that names nothing past size 9 by about 0.08 MiB; a name
# reads it once into a local, so a table another thread swaps in is never
# indexed past its end.
_NUMERALS: list[str] = []


def _perm_str(p: Perm | bytes) -> str:
    """perm_to_str without its check, for prefixes read off a tree, given
    as a tuple or as bytes, one byte an entry.  A prefix of size k holds
    1..k, so up to size 9 the name is one translate to digits, and past it
    each numeral is read off a table."""
    global _NUMERALS
    if len(p) <= 9:
        return bytes(p).translate(_DIGITS).decode()
    numerals = _NUMERALS
    if len(numerals) <= len(p):
        numerals = _NUMERALS = [str(v) for v in range(len(p) + 1)]
    return ",".join([numerals[v] for v in p])


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
