"""Backward induction on the label DAG of a class's generating tree.

A prefix's subtree depends only on its size k and its label (see
permutations): the children are the label's clear bits, and each child's
label is stepped from it by _relabel with bits that depend only on k and
the child's value c.  So the generating tree is the unfolding of a far
smaller graph whose states are the (k, label) pairs, the ECO view the label
comes from (West, Discrete Math. 146 (1995); Barcucci, Del Lungo, Pergola
and Pinzani, J. Difference Equ. Appl. 5 (1999)).  Every count over a
subtree, and its optimum, is a function of the state.

Each state holds its member total, z0 (the completions with no new running
maximum) and z1 (those with exactly one).  Stopping at an eligible prefix
wins z0: the top value is the one seen last.  Stopping at any other prefix
wins nothing.  Rejecting and accepting the next running maximum (trigger)
wins z1.  Only own wins differ between the modes, so one sweep from rank n
up to the null prefix, one dict per depth, serves both: it gives each state
the sum of its children's best wins in each mode, its strike and trigger
best below.  A prefix stops when its own wins are strictly larger (ties
keep the deeper strategy), which makes the resulting set canonical: the
first stopping prefix or leaf on each path.  Only own wins depend on
eligibility, so the best below is kept per state.  States with no members
are dropped, as the tree prunes them.

game(cls, n) is the sweep, a Game its caller keeps for every question; its
two mode views read one mode's best below in value, stops, strike_set and
per_node_values, and hold the game, which holds no view.  The moves are
built once per game, on their first read; the strategy walk table,
sampling, the West pairing, prefixtree.build and the optimal set's listing
read them directly.  The listing (made only when stops or strike_set is
read, so a value alone costs only the sweep) unfolds the label DAG one
depth at a time: the stop rule reads only a prefix's state and eligibility,
so each (label, eligible) group's prefixes are held in one list, the group
is decided once, and its children's lists are made one comprehension a
move, merged where groups meet; it comes in no set order.  Every reader
that needs preorder, or tests the prefix itself, reads one preorder walk,
Game.walk, from the null prefix, the root or any prefix p (state finds p's
(k, label)), under the tree's caps: the whole-tree printout, the figures
and isomorphism checks, and through its pruned form first_hits, which
descends below no hit, strike-set completion, successors and the naming of
a strike set's first uncovered leaf.  The walk and the listing carry each
prefix as bytes, one byte an entry, stepped by permutations._shifts, so a
child costs one translate and one append, and both refuse ranks past
errors.WALK_MAX_RANK.  hit reads those bytes and the walk yields them;
stops hands them on, which the command line sorts and names with no tuples
made, and a caller makes tuples only of what it returns (strike_set,
completion, successors); enumerate_class yields the leaves as tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import (DAG_STATE_CAP, DEFAULT_MAX_RANK, DEFAULT_TREE_CAP, InvalidInputError,
                     LimitError, NotFoundError)
from .permutations import (PatternClass, Perm, _free, _label, _opened, _relabel, _shifts,
                           is_eligible, is_permutation, pattern_class, perm_to_str,
                           prefix_flattening)
from .tallies import Tally

# states[k][label] = (member total, z0, z1, strike best below, trigger best below)
State = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class StrikeSet:
    """A complete antichain of prefixes: every member of the class meets
    exactly one element of the set along its prefix chain."""

    members: frozenset[Perm]


def _check_caps(cls: PatternClass, n: int, cap: int = DEFAULT_TREE_CAP) -> None:
    """Refuse a rank-n listing of cls past the tree's caps, before any work:
    LimitError when n exceeds DEFAULT_MAX_RANK or the known class size
    exceeds cap.  cls.size refuses a rank below 1."""
    if n > DEFAULT_MAX_RANK:
        raise LimitError(
            f"rank {n} exceeds the tree cap {DEFAULT_MAX_RANK}; "
            "use the closed-form modules for deeper ranks"
        )
    known = cls.size(n)
    if known is not None and known > cap:
        raise LimitError(
            f"class {cls.name} has {known} members at rank {n}, over the cap {cap}"
        )


@dataclass(frozen=True)
class Game:
    """One sweep's states, per depth by label (see State), and the walks its readers share."""

    pattern_class: PatternClass
    rank: int
    states: list[dict[int, State]] = field(repr=False)

    @cached_property
    def moves(self) -> list[dict[int, tuple]]:
        """Per depth, each state's children with members, c ascending, as
        (c, child label, child member total, child's moves, eligible): the
        last is the child's eligibility.  Built on the first read."""
        n, states = self.rank, self.states
        opened = _opened(self.pattern_class, n)
        moves = [{} for _ in range(n)] + [dict.fromkeys(states[n], ())]
        for k in range(n - 1, -1, -1):
            row, deeper, kids = opened[k], states[k + 1], moves[k + 1]
            for label in states[k]:
                moves[k][label] = tuple(
                    (c, sub, deeper[sub][0], kids[sub], c > k)
                    for c in _free(label, k) if (sub := _relabel(label, c, row[c])) in deeper)
        return moves

    def state(self, p: Perm, least: int = 0) -> tuple[int, int]:
        """(k, label), the state of the size-k prefix p.  NotFoundError unless
        p is a node of the rank-n tree (the null prefix is one) and k >= least."""
        k = len(p)
        # a member's label names its state, which has members if p does
        if least <= k <= self.rank and (k == 0 or is_permutation(p)) and (
                label := _label(p, self.pattern_class.forbidden)) in self.states[k]:
            return k, label
        raise NotFoundError(f"prefix {p!r} is not a node of the rank-{self.rank} "
                            f"tree for class {self.pattern_class.name}")

    def _step_tables(self) -> tuple[list[bytes], list[bytes]]:
        """permutations._shifts for the game's rank, for a walk or a listing
        of its prefixes: refused past the tree's member cap, then past rank
        WALK_MAX_RANK."""
        total = self.states[0][0][0]
        if total > DEFAULT_TREE_CAP:
            raise LimitError(f"class {self.pattern_class.name} has {total} members "
                             f"at rank {self.rank}, over the cap {DEFAULT_TREE_CAP}")
        return _shifts(self.rank)

    def walk(self, hit: Callable[[bytes, int, int, bool], bool] | None = None,
             start: Perm = (), inner: bool = True) -> Iterator[tuple[bytes, int, int, bool, bool]]:
        """(p, k, label, eligible, hit there) of each node at or below start
        (a node, see state; the null prefix by default) in preorder, children
        in ascending value, going below no node where hit(p, k, label,
        eligible) holds; without inner, only the hits and leaves.  Each p is
        bytes, one byte an entry, stepped by permutations._shifts's tables.
        Refused past the tree's member cap and past rank WALK_MAX_RANK."""
        n = self.rank
        shift, last = self._step_tables()
        k, label = self.state(start)
        stack = [(bytes(start), k, label, is_eligible(start), self.moves[k][label])]
        while stack:
            p, k, label, eligible, node = stack.pop()
            stop = hit is not None and hit(p, k, label, eligible)
            if inner or stop or k == n:
                yield p, k, label, eligible, stop
            if not stop and k < n:
                stack.extend([(p.translate(shift[c]) + last[c], k + 1, sub, eligible, kids)
                              for c, sub, _, kids, eligible in reversed(node)])

    def first_hits(self, hit: Callable[[bytes, int, int, bool], bool],
                   start: Perm = ()) -> Iterator[tuple[bytes, int, int, bool, bool]]:
        """The walk pruned to its hits and leaves: the first prefix on each
        path at or below start where hit holds, or the path's leaf."""
        return self.walk(hit, start, inner=False)


@dataclass(frozen=True)
class OptimalResult:
    """A game read in one mode, "strike" or "trigger", whose best below value,
    strike_set and per_node_values read; a trigger set may hold ()."""

    game: Game
    mode: str

    @cached_property
    def value(self) -> Tally:
        total, _, z1, strike, trigger = self.game.states[0][0]  # the null prefix's
        return Tally(strike if self.mode == "strike" else max(z1, trigger), total)

    @cached_property
    def per_node_values(self) -> dict[tuple[int, int], Tally]:
        """Each state's best below as a tally over its members, keyed by
        (k, label) (a leaf's is 0/1), the null prefix's in trigger mode
        only; built on the first read."""
        i, first = (3, 1) if self.mode == "strike" else (4, 0)
        return {(k, label): Tally(state[i], state[0])
                for k, level in enumerate(self.game.states[first:], first)
                for label, state in level.items()}

    def stops(self) -> Iterator[bytes]:
        """The first stopping prefix or leaf on each path, each as bytes, one
        byte an entry, in no set order, unfolded afresh on each call.  The
        stop rule reads only a prefix's state and eligibility, so the label
        DAG is unfolded one depth at a time, each (label, eligible) group's
        prefixes in one list, decided once per group: a stopping group is
        yielded, any other is stepped to its children's groups, which merge
        where they meet, and the leaves are yielded as they are made.
        Refused, on the first next(), past the tree's member cap and past
        rank WALK_MAX_RANK (see Game.walk)."""
        g, trigger = self.game, self.mode == "trigger"
        n, states, moves = g.rank, g.states, g.moves
        shift, last = g._step_tables()
        start = () if trigger else (1,)
        k, label = g.state(start)
        level = {(label, is_eligible(start)): [bytes(start)]}
        while level:
            deeper: dict[tuple[int, bool], list[bytes]] = {}
            while level:
                (label, eligible), ps = level.popitem()
                _, z0, z1, strike, below = states[k][label]
                if k == n or (z1 > below if trigger else eligible and z0 > strike):
                    yield from ps
                    continue
                for c, sub, _, _, eligible in moves[k][label]:
                    kids = [p.translate(shift[c]) + last[c] for p in ps]
                    if k + 1 == n:
                        yield from kids
                    elif (group := deeper.get((sub, eligible))) is None:
                        deeper[sub, eligible] = kids
                    else:
                        group += kids
            level, k = deeper, k + 1

    @cached_property
    def strike_set(self) -> StrikeSet:
        """The members of stops() as tuples, listed on the first read."""
        return StrikeSet(members=frozenset(map(tuple, self.stops())))


def game(cls: PatternClass | str, n: int) -> Game:
    """The rank-n game of cls (a class or its name), one sweep of its label
    DAG; only its walks keep the tree's caps (see _check_caps)."""
    cls = pattern_class(cls)
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
    opened = _opened(cls, n)
    # the labels at each depth, down from the null prefix's 0
    labels: list[list[int]] = [[0]]
    seen = 1
    for k in range(n):
        row = opened[k]
        found = {_relabel(label, c, row[c]) for label in labels[k] for c in _free(label, k)}
        seen += len(found)
        if seen > DAG_STATE_CAP:
            raise LimitError(f"label DAG for class {cls.name} at rank {n} exceeded "
                             f"the cap of {DAG_STATE_CAP} states")
        labels.append(list(found))

    states: list[dict[int, State]] = [{} for _ in range(n + 1)]
    states[n] = dict.fromkeys(labels[n], (1, 1, 0, 0, 0))
    for k in range(n - 1, -1, -1):
        row, deeper, here = opened[k], states[k + 1], states[k]
        for label in labels[k]:
            total = z0 = z1 = strike = trigger = 0
            for c in _free(label, k):
                child = deeper.get(_relabel(label, c, row[c]))
                if child is None:
                    continue
                t, c0, c1, s, g = child
                total += t
                if c > k:
                    # the child's new entry is a running maximum
                    z1 += c0
                    strike += c0 if c0 > s else s
                else:
                    z0 += c0
                    z1 += c1
                    strike += s
                trigger += c1 if c1 > g else g
            if total:
                here[label] = (total, z0, z1, strike, trigger)

    if not states[0]:
        raise InvalidInputError(f"class {cls.name} has no members at rank {n}")
    return Game(pattern_class=cls, rank=n, states=states)


def completion(S: Iterable[Perm], g: Game) -> StrikeSet:
    """Extend the antichain S of prefixes in the game g to a complete one:
    S and every member not already covered by a member of S."""
    _check_caps(g.pattern_class, g.rank)
    base = {tuple(p) for p in S}
    for p in base:
        g.state(p, least=1)  # the null prefix is no strike point
    raw = {bytes(p) for p in base}  # as the walk holds its prefixes
    hits = g.first_hits(lambda p, k, label, el: p in raw, start=(1,))
    members = frozenset(tuple(p) for p, _, _, _, _ in hits)
    # a member of S the walk passed by lies below another
    for b in (b for b in base if b not in members):
        a = next(a for j in range(1, len(b)) if (a := prefix_flattening(b, j)) in base)
        raise InvalidInputError(f"not an antichain: {perm_to_str(a)} is a prefix "
                                f"flattening of {perm_to_str(b)}")
    return StrikeSet(members=members)


def successors(g: Game, p: Perm) -> tuple[Perm, ...]:
    """The prefixes a player who rejects at the eligible prefix p of the
    game g moves on to: its minimal eligible strict descendants, plus any
    rank-n descendants reached without passing one (covering those orders
    exactly once), depth-first with children in ascending value.

    >>> successors(game("321", 3), (1,))
    ((3, 1, 2), (2, 1, 3), (1, 2))
    """
    _check_caps(g.pattern_class, g.rank)
    k, _ = g.state(p)
    if not is_eligible(p):
        raise InvalidInputError(f"prefix {p!r} is not eligible")
    if k == g.rank:
        return ()
    return tuple(tuple(q) for q, _, _, _, _ in g.first_hits(
        lambda q, j, label, el: el and j > k, start=p))


def optimal_strike_set(g: Game) -> OptimalResult:
    """Best complete strike strategy in the game g; per_node_values maps
    each state to the best value achievable strictly below it."""
    return OptimalResult(g, "strike")


def optimal_trigger_set(g: Game) -> OptimalResult:
    """Best complete trigger strategy; the empty prefix is a legal trigger."""
    return OptimalResult(g, "trigger")
