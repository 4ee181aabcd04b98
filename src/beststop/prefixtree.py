"""Materialized tree of prefix flattenings with exact strike/trigger tallies.

Nodes at depth k are the rank-k members of the class; the children of a node
are its one-entry extensions inside the class.  Leaves sit at depth N (the
rank of the game).  Each node carries two tallies over the members beneath
it:

  strike  - wins counts completions whose top value N arrives exactly at
            this prefix's last position (stopping here wins those),
  trigger - wins counts completions for which rejecting the current
            candidate and accepting the next left-to-right maximum wins.

A virtual null node above the root represents the empty prefix, which is a
legal trigger point ("accept the first candidate that is a running maximum")
but never a strike point.

build never rescans a prefix: each open node carries its label, the values
whose appending would complete a forbidden pattern (see permutations), and
the leaves are made in their parent's loop.

frontier walks to the first node on each path where a test holds; successors
reads it.  Optimal sets, strategy scoring and strike-set completion need no
tree: they read the optimizer's sweep of the label DAG and its walk over
prefixes.
"""
from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InvalidInputError, LimitError, NotFoundError
from .permutations import (
    PatternClass,
    Perm,
    _free,
    _opened,
    _perm_str,
    _relabel,
)
from .tallies import Tally

# Trees are only materialized up to this rank and this many members (leaves)
# unless the caller raises the caps.  A tree holds about 230 B per leaf (the
# unrestricted class at rank 9, 362,880 leaves and 409,114 nodes: 79 MiB of
# objects by tracemalloc, 96 MiB peak RSS in a fresh Python 3.11 process;
# the Catalan classes at rank 12 take about 320 B per leaf), so the member
# cap keeps a build to about 0.3 GB.  Reading index adds about 50 B a node.
DEFAULT_MAX_RANK = 12
DEFAULT_TREE_CAP = 1_000_000


@dataclass(eq=False, slots=True)
class TreeNode:
    """One prefix flattening.  total is its member count, shared by its
    strike and trigger values; the win counts are stored as plain ints.
    Not frozen, which makes it four times cheaper to build; nothing assigns
    to a node once build has made it."""

    prefix: Perm
    eligible: bool
    strike_wins: int
    trigger_wins: int
    total: int
    children: tuple["TreeNode", ...]

    @property
    def strike(self) -> Tally:
        return Tally(self.strike_wins, self.total)

    @property
    def trigger(self) -> Tally:
        return Tally(self.trigger_wins, self.total)


@dataclass(frozen=True)
class StrikeSet:
    """A complete antichain of prefixes: every member of the class meets
    exactly one element of the set along its prefix chain."""

    members: frozenset[Perm]


@dataclass(eq=False)
class PrefixTree:
    pattern_class: PatternClass
    rank: int
    null: TreeNode
    root: TreeNode

    @property
    def total(self) -> int:
        return self.root.total

    @cached_property
    def index(self) -> dict[Perm, TreeNode]:
        """Every node by prefix, the null node under (); built on the
        first read, so only point lookups pay for it."""
        index = {(): self.null}
        index.update((node.prefix, node) for node in self.nodes())
        return index

    def node(self, p: Sequence[int]) -> TreeNode:
        key = tuple(p)
        try:
            return self.index[key]
        except KeyError:
            raise NotFoundError(
                f"prefix {key!r} is not a node of the rank-{self.rank} "
                f"tree for class {self.pattern_class.name}"
            ) from None

    def nodes(self) -> Iterator[TreeNode]:
        """Every node except the virtual null, in depth-first order."""
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.children))


def _check_caps(cls: PatternClass, n: int, cap: int = DEFAULT_TREE_CAP) -> None:
    """Refuse a rank-n listing of cls past the tree's caps, before any work:
    LimitError when n exceeds DEFAULT_MAX_RANK or the known class size
    exceeds cap."""
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
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


def build(cls: PatternClass, n: int, cap: int = DEFAULT_TREE_CAP) -> PrefixTree:
    """Materialize the rank-n tree for cls with all tallies filled in.

    Raises LimitError when n exceeds DEFAULT_MAX_RANK or the class size
    exceeds cap.
    """
    _check_caps(cls, n, cap)

    # state of the open node of size s (size 0 is the null node): its
    # finished children and the wins of the leaves seen under it so far
    kids: list[list[TreeNode]] = [[] for _ in range(n + 1)]
    strike_wins = [0] * (n + 1)
    trigger_wins = [0] * (n + 1)
    opened = _opened(cls, n)
    seen = 0

    def grow(p: Perm, label: int, top: int, second: int) -> int:
        """Build the children of p that have members, hang them in kids[k],
        and return p's member count.  label is p's label (see permutations).
        top and second are the sizes at which p's last two left-to-right
        maxima arrived (0 where p has fewer)."""
        nonlocal seen
        k = len(p)
        found = kids[k] = []
        strike_wins[k] = trigger_wins[k] = 0
        free = _free(label, k)
        if k + 1 == n:
            # the children are the leaves; the value n arrives at size top
            # in each but the new running maximum c = n, where it arrives
            # last.  Rejecting at sizes second .. top-1 and taking the next
            # running maximum lands exactly on it.
            seen += len(free)
            if seen > cap:
                raise LimitError(
                    f"tree for class {cls.name} at rank {n} exceeded cap {cap}"
                )
            for c in free:
                q = tuple([v + (v >= c) for v in p]) + (c,)
                found.append(TreeNode(q, c == n, int(c == n), 0, 1, ()))
            rises = free[-1:] == [n]
            below = len(free) - rises
            strike_wins[top] += below
            for s in range(second, top):
                trigger_wins[s] += below
            if rises:
                for s in range(top, n):
                    trigger_wins[s] += 1
            return len(free)
        total = 0
        row = opened[k]
        for c in free:
            q = tuple([v + (v >= c) for v in p]) + (c,)
            # a child whose new entry is k+1 is a new running maximum
            eligible = c > k
            sub_label = _relabel(label, c, row[c])
            sub = grow(q, sub_label, k + 1, top) if eligible else grow(q, sub_label, top, second)
            if sub:
                found.append(TreeNode(q, eligible, strike_wins[k + 1] if eligible else 0,
                                      trigger_wins[k + 1], sub, tuple(kids[k + 1])))
                total += sub
        return total

    try:
        total = grow((), 0, 0, 0)
    finally:
        # grow's closure holds grow itself and kids (so the root): dropping
        # the name breaks that cycle, so a dropped tree, or the part built
        # before the member cap refused it, goes by reference counting
        del grow
    if total == 0:
        raise InvalidInputError(f"class {cls.name} has no members at rank {n}")
    null = TreeNode((), False, 0, trigger_wins[0], total, tuple(kids[0]))
    return PrefixTree(pattern_class=cls, rank=n, null=null, root=null.children[0])


def frontier(start: TreeNode, hit: Callable[[TreeNode], bool]) -> Iterator[tuple[TreeNode, bool]]:
    """The first node at or below start where hit holds on each path, or the
    path's leaf if none, as (node, hit_here) in depth-first order, children
    in stored order.  hit is not asked about the nodes below a hit."""
    stack = [start]
    while stack:
        node = stack.pop()
        if hit(node):
            yield node, True
        elif node.children:
            stack.extend(reversed(node.children))
        else:
            yield node, False


def successors(tree: PrefixTree, p: Sequence[int]) -> tuple[TreeNode, ...]:
    """The frontier after rejecting at the eligible prefix p: its minimal
    eligible strict descendants, plus any rank-N descendants reached
    without passing one (covering those orders exactly once)."""
    node = tree.node(p)
    if not node.eligible:
        raise InvalidInputError(f"prefix {tuple(p)!r} is not eligible")
    return tuple(first for child in node.children
                 for first, _ in frontier(child, attrgetter("eligible")))


def tree_to_dict(tree: PrefixTree) -> dict:
    """JSON-ready nested representation of the tree."""

    def render(node: TreeNode) -> dict:
        return {
            "prefix": _perm_str(node.prefix),
            "eligible": node.eligible,
            "strike": str(node.strike),
            "trigger": str(node.trigger),
            "children": [render(c) for c in node.children],
        }

    return render(tree.root)


def tree_to_json(tree: PrefixTree) -> str:
    return json.dumps(tree_to_dict(tree), indent=2)


class TreeCacheInfo(NamedTuple):
    hits: int
    misses: int
    trees: int
    members: int


class _TreeCache:
    """Built trees by (class, rank), least recently used first.  The trees
    held have at most DEFAULT_TREE_CAP members in all, the memory one
    capped build may take: storing a tree evicts the least recently used
    ones until the rest fit."""

    def __init__(self) -> None:
        self.trees: OrderedDict[tuple[PatternClass, int], PrefixTree] = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, cls: PatternClass, n: int) -> PrefixTree:
        """Shared, memoized build for repeated lookups (`tree`, `verify`, tests)."""
        key = (cls, n)
        if key in self.trees:
            self.hits += 1
            self.trees.move_to_end(key)
            return self.trees[key]
        self.misses += 1
        tree = self.trees[key] = build(cls, n)
        while self.members() > DEFAULT_TREE_CAP:
            self.trees.popitem(last=False)
        return tree

    def members(self) -> int:
        return sum(t.total for t in self.trees.values())

    def cache_info(self) -> TreeCacheInfo:
        return TreeCacheInfo(self.hits, self.misses, len(self.trees), self.members())

    def cache_clear(self) -> None:
        self.trees.clear()
        self.hits = self.misses = 0


cached_tree = _TreeCache()
