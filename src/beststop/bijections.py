"""Bijections between prefix trees of different forbidden patterns.

Three maps carry one game to another:

  slide_max          moves the maximum of a prefix rightward until the
                     result avoids 231; on an eligible 231-avoiding
                     prefix it sends winnable completions onto winnable
                     completions of deeper prefixes
  remove_minimum     deletes the value 1 from a prefix with an inversion
                     and flattens, dropping the rank by one
  convert_231_to_132 a recursive relabeling exchanging the two patterns
                     while keeping the position of the maximum fixed

For 321 versus 312 the trees are isomorphic but no single relabeling of
prefixes realizes the isomorphism; west_correspondence reads the node
pairing off the two cached prefix trees instead, matching sorted child
lists in reverse order except that the new-maximum child always pairs
with the new-maximum child.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InvalidInputError, NotFoundError
from .permutations import (
    AV312,
    AV321,
    PatternClass,
    Perm,
    contains_pattern,
    flatten,
    has_inversion,
    pattern_class,
    validate_permutation,
)
from .prefixtree import PrefixTree, TreeNode, cached_tree


def _flat(seq: Sequence[int]) -> Perm:
    return flatten(seq) if seq else ()


def slide_max(p: Sequence[int]) -> Perm:
    """Swap the maximum rightward, one adjacent step at a time, until the
    result avoids 231.  Always makes at least one swap, so the prefix must
    not already end with its maximum.

    >>> slide_max((4, 1, 3, 2))
    (1, 4, 3, 2)
    >>> slide_max((1, 4, 3, 2))
    (1, 3, 2, 4)
    """
    perm = validate_permutation(p)
    if contains_pattern(perm, (2, 3, 1)):
        raise InvalidInputError(f"prefix {perm!r} contains the pattern 231")
    n = len(perm)
    if n == 0 or perm[-1] == n:
        raise DomainError("slide_max needs the maximum somewhere before the end")
    work = list(perm)
    m = work.index(n)
    while True:
        work[m], work[m + 1] = work[m + 1], work[m]
        m += 1
        # with the maximum last there is no middle role left for it, so
        # the loop always terminates by m = n - 1
        if not contains_pattern(tuple(work), (2, 3, 1)):
            return tuple(work)


def remove_minimum(p: Sequence[int]) -> Perm:
    """Delete the value 1 and flatten; the prefix must have an inversion,
    which pins the deleted entry's relative rank for every completion.

    >>> remove_minimum((2, 3, 1, 4))
    (1, 2, 3)
    """
    perm = validate_permutation(p)
    if not has_inversion(perm):
        raise DomainError("remove_minimum needs a prefix with an inversion")
    return flatten(tuple(v for v in perm if v != 1))


def convert_231_to_132(p: Sequence[int]) -> Perm:
    """Exchange 231-avoidance for 132-avoidance by recursing on the two
    sides of the maximum, keeping the maximum's position.  In a
    231-avoiding prefix everything left of the maximum is below everything
    right of it; the map lifts the left block above the right block.

    >>> convert_231_to_132((1, 3, 2))
    (2, 3, 1)
    >>> convert_231_to_132((1, 2, 3))
    (1, 2, 3)
    """
    if len(p) == 0:
        return ()
    perm = validate_permutation(p)
    n = len(perm)
    if n <= 2:
        return perm
    m = perm.index(n)
    left = convert_231_to_132(_flat(perm[:m]))
    right = convert_231_to_132(_flat(perm[m + 1 :]))
    lift = n - 1 - m
    return tuple(v + lift for v in left) + (n,) + right


def convert_132_to_231(p: Sequence[int]) -> Perm:
    """Inverse of convert_231_to_132: drop the left block back below the
    right block.

    >>> convert_132_to_231((2, 3, 1))
    (1, 3, 2)
    """
    if len(p) == 0:
        return ()
    perm = validate_permutation(p)
    n = len(perm)
    if n <= 2:
        return perm
    m = perm.index(n)
    left = convert_132_to_231(_flat(perm[:m]))
    right = convert_132_to_231(_flat(perm[m + 1 :]))
    return left + (n,) + tuple(v + m for v in right)


def west_correspondence(n: int) -> dict[Perm, Perm]:
    """The tree isomorphism from 321-avoiding to 312-avoiding prefixes of
    size <= n, read off the two rank-n trees: sorted child lists are paired
    largest-with-largest (both are the new-maximum extension) and the rest
    in reverse order."""
    mapping: dict[Perm, Perm] = {}
    stack = [(cached_tree(AV321, n).null, cached_tree(AV312, n).null)]
    while stack:
        a, b = stack.pop()
        mapping[a.prefix] = b.prefix
        ca, cb = a.children, b.children
        if len(ca) != len(cb):
            raise InvalidInputError(
                f"child counts differ under {a.prefix!r} / {b.prefix!r}: {len(ca)} vs {len(cb)}"
            )
        # ca[t] pairs with cb[m-2-t], except that the last pairs with the last
        stack.extend(zip(ca, cb[-2::-1] + cb[-1:]))
    return mapping


@dataclass(frozen=True)
class TreeIsomorphismReport:
    """Outcome of checking that two prefix trees carry the same game."""

    classes: tuple[str, str]
    rank: int
    method: str
    structure_ok: bool
    strike_values_ok: bool
    first_mismatch: tuple[Perm, Perm] | None

    @property
    def ok(self) -> bool:
        return self.structure_ok and self.strike_values_ok


def _pair_by_map(
    ta: PrefixTree, tb: PrefixTree, partner_of
) -> tuple[bool, bool, tuple[Perm, Perm] | None]:
    value_miss: tuple[Perm, Perm] | None = None
    for node in ta.nodes():
        partner = partner_of(node.prefix)
        if partner is None:
            return False, False, (node.prefix, ())
        try:
            other = tb.node(partner)
        except NotFoundError:
            return False, False, (node.prefix, partner)
        if len(node.children) != len(other.children) or node.eligible != other.eligible:
            return False, False, (node.prefix, partner)
        same = node.strike_wins == other.strike_wins and node.total == other.total
        if not same and value_miss is None:
            value_miss = (node.prefix, partner)
    return True, value_miss is None, value_miss


def _shape_key(node: TreeNode) -> tuple:
    kids = tuple(sorted(_shape_key(c) for c in node.children))
    return (node.eligible, node.strike_wins, node.total, kids)


_UPSILON_PAIRS = {("231", "132"), ("132", "231")}
_WEST_PAIRS = {("321", "312"), ("312", "321")}


def verify_tree_isomorphism(
    a: PatternClass | str,
    b: PatternClass | str,
    n: int,
) -> TreeIsomorphismReport:
    """Check whether two games' prefix trees at rank n match node for
    node, with equal completion counts and win counts throughout.

    The class pair picks the method: "upsilon" (the 231/132 relabeling),
    "west" (the 321/312 pairing), or else "search" (canonical-form
    comparison, rank <= 6 only).
    """
    ca, cb = pattern_class(a), pattern_class(b)
    pair = (ca.name, cb.name)
    if pair not in _UPSILON_PAIRS | _WEST_PAIRS and n > 6:
        raise InvalidInputError("search method is limited to rank <= 6")
    ta = cached_tree(ca, n)
    tb = cached_tree(cb, n)

    if pair in _UPSILON_PAIRS:
        method = "upsilon"
        fn = convert_231_to_132 if ca.name == "231" else convert_132_to_231
        s_ok, v_ok, miss = _pair_by_map(ta, tb, fn)
    elif pair in _WEST_PAIRS:
        method = "west"
        raw = west_correspondence(n)
        if ca.name == "312":
            raw = {v: k for k, v in raw.items()}
        s_ok, v_ok, miss = _pair_by_map(ta, tb, raw.get)
    else:
        method = "search"
        ok = _shape_key(ta.root) == _shape_key(tb.root)
        s_ok = v_ok = ok
        miss = None if ok else (ta.root.prefix, tb.root.prefix)

    return TreeIsomorphismReport(
        classes=pair,
        rank=n,
        method=method,
        structure_ok=s_ok,
        strike_values_ok=v_ok,
        first_mismatch=miss,
    )
