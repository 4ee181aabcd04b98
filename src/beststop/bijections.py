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
pairing off the two games' moves in lockstep instead, matching sorted child
lists in reverse order except that the new-maximum child always pairs with
the new-maximum child.  verify_tree_isomorphism sweeps each of its two games
once and checks each node of the first, off its walk (optimizer.Game.walk),
against its partner's state in the second, found along the second's moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .errors import DomainError, InvalidInputError
from .optimizer import Game, _check_caps, game
from .permutations import (
    PatternClass,
    Perm,
    _shifts,
    contains_pattern,
    flatten,
    has_inversion,
    pattern_class,
    validate_permutation,
)


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


def _exchange(entries: Sequence[int], lift_left: bool) -> Perm:
    """convert_231_to_132 (lift_left) or convert_132_to_231 of the
    flattening of entries, distinct integers: each block is sliced off the
    entries as given, flattened by no call, and split at its maximum."""
    n = len(entries)
    if n <= 2:
        return (2, 1) if n == 2 and entries[0] > entries[1] else (1, 2)[:n]
    m = entries.index(max(entries))
    left = _exchange(entries[:m], lift_left)
    right = _exchange(entries[m + 1 :], lift_left)
    if lift_left:
        return tuple([v + n - 1 - m for v in left]) + (n,) + right
    return left + (n,) + tuple([v + m for v in right])


def convert_231_to_132(p: Sequence[int]) -> Perm:
    """Exchange 231-avoidance for 132-avoidance by recursing on the two
    sides of the maximum, keeping the maximum's position.  In a
    231-avoiding prefix everything left of the maximum is below everything
    right of it; the map lifts the left block above the right block.  Any
    permutation is mapped so, by the flattened blocks; anything else is
    refused.

    >>> convert_231_to_132((1, 3, 2))
    (2, 3, 1)
    >>> convert_231_to_132((1, 2, 3))
    (1, 2, 3)
    """
    return _exchange(validate_permutation(p), True) if len(p) else ()


def convert_132_to_231(p: Sequence[int]) -> Perm:
    """Inverse of convert_231_to_132: drop the left block back below the
    right block.

    >>> convert_132_to_231((2, 3, 1))
    (1, 3, 2)
    """
    return _exchange(validate_permutation(p), False) if len(p) else ()


def west_correspondence(g321: Game, g312: Game) -> dict[Perm, Perm]:
    """The tree isomorphism from 321-avoiding to 312-avoiding prefixes of
    size up to the games' common rank, read off the two games' moves in
    lockstep: sorted child lists are paired largest-with-largest (both are
    the new-maximum extension) and the rest in reverse order.  Refused past
    the tree's caps."""
    if (g321.pattern_class.name, g312.pattern_class.name) != ("321", "312"):
        raise InvalidInputError(
            f"west_correspondence needs the 321 and 312 games, got "
            f"{g321.pattern_class.name} and {g312.pattern_class.name}"
        )
    if g321.rank != g312.rank:
        raise InvalidInputError(f"game ranks differ: {g321.rank} vs {g312.rank}")
    _check_caps(g321.pattern_class, g321.rank)
    shift, last = _shifts(g321.rank)
    mapping: dict[Perm, Perm] = {}
    stack = [(b"", b"", g321.moves[0][0], g312.moves[0][0])]
    while stack:
        a, b, ma, mb = stack.pop()
        mapping[tuple(a)] = tuple(b)
        if len(ma) != len(mb):
            raise InvalidInputError(
                f"child counts differ under {tuple(a)!r} / {tuple(b)!r}: {len(ma)} vs {len(mb)}"
            )
        # ma[t] pairs with mb[m-2-t], except that the last pairs with the last
        stack.extend((a.translate(shift[c]) + last[c], b.translate(shift[d]) + last[d], ka, kb)
                     for (c, _, _, ka, _), (d, _, _, kb, _) in zip(ma, mb[-2::-1] + mb[-1:]))
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
    ga: Game, gb: Game, partner_of
) -> tuple[bool, bool, tuple[Perm, Perm] | None]:
    """Each node of ga's walk against its partner's state in gb.  A partner
    must extend its parent's partner (the null prefix's, for the root), and
    its state is the move of that partner's state whose value is its last
    entry."""
    value_miss: tuple[Perm, Perm] | None = None
    shift, last = _shifts(ga.rank)
    # above[k]: the partner of the walk's last node of size k, as bytes, and its moves
    above: list[tuple[bytes, tuple]] = [(b"", gb.moves[0][0])] * (ga.rank + 1)
    for p, k, label, eligible, _ in ga.walk(start=(1,)):
        p = tuple(p)
        partner = partner_of(p) or ()
        parent, moves = above[k - 1]
        c = partner[-1] if partner else 0
        move = next((m for m in moves if m[0] == c), None)
        if move is None or (q := bytes(partner)) != parent.translate(shift[c]) + last[c]:
            return False, False, (p, partner)
        _, sub, _, moves, other_eligible = move
        if len(ga.moves[k][label]) != len(moves) or eligible != other_eligible:
            return False, False, (p, partner)
        above[k] = (q, moves)
        (total, z0, *_), (other_total, other_z0, *_) = ga.states[k][label], gb.states[k][sub]
        same = total == other_total and (not eligible or z0 == other_z0)
        if not same and value_miss is None:
            value_miss = (p, partner)
    return True, value_miss is None, value_miss


def _shape_key(g: Game):
    """The canonical form of g's subtree at a state (k, label) entered with
    eligibility: that, its strike wins, total and children's forms sorted."""

    @cache
    def key(k: int, label: int, eligible: bool) -> tuple:
        total, z0, *_ = g.states[k][label]
        kids = tuple(sorted(key(k + 1, sub, el) for _, sub, _, _, el in g.moves[k][label]))
        return (eligible, z0 if eligible else 0, total, kids)

    return key


_UPSILON_PAIRS = {("231", "132"), ("132", "231")}
_WEST_PAIRS = {("321", "312"), ("312", "321")}


def verify_tree_isomorphism(
    a: PatternClass | str,
    b: PatternClass | str,
    n: int,
) -> TreeIsomorphismReport:
    """Check whether two games' prefix trees at rank n match node for
    node, with equal completion counts and win counts throughout.

    The class pair picks the method: "upsilon" (the 231/132 relabeling,
    whose inverse must send each partner back to its prefix), "west" (the
    321/312 pairing), or else "search" (canonical-form comparison, rank
    <= 6 only).
    """
    ca, cb = pattern_class(a), pattern_class(b)
    pair = (ca.name, cb.name)
    if pair not in _UPSILON_PAIRS | _WEST_PAIRS and n > 6:
        raise InvalidInputError("search method is limited to rank <= 6")
    _check_caps(ca, n)  # the pairs' classes have one size; search stops at rank 6
    ga, gb = game(ca, n), game(cb, n)

    if pair in _UPSILON_PAIRS:
        method = "upsilon"
        there, back = convert_231_to_132, convert_132_to_231
        if ca.name == "132":
            there, back = back, there
        # a partner the inverse map does not send back counts as missing
        s_ok, v_ok, miss = _pair_by_map(ga, gb, lambda p: q if back(q := there(p)) == p else None)
    elif pair in _WEST_PAIRS:
        method = "west"
        if ca.name == "321":
            raw = west_correspondence(ga, gb)
        else:
            raw = {v: k for k, v in west_correspondence(gb, ga).items()}
        s_ok, v_ok, miss = _pair_by_map(ga, gb, raw.get)
    else:
        method = "search"
        ok = _shape_key(ga)(*ga.state((1,)), True) == _shape_key(gb)(*gb.state((1,)), True)
        s_ok = v_ok = ok
        miss = None if ok else ((1,), (1,))

    return TreeIsomorphismReport(
        classes=pair,
        rank=n,
        method=method,
        structure_ok=s_ok,
        strike_values_ok=v_ok,
        first_mismatch=miss,
    )
