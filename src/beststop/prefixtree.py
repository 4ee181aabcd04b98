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

build reads the tallies off the optimizer's trigger sweep of the label DAG:
a node is its state's member total, z0 (its strike wins when eligible) and
z1 (its trigger wins), and its children are the state's moves, so one rule
counts the wins of the tree and of the optimizer.

frontier walks to the first node on each path where a test holds; successors
reads it.  Optimal sets, strategy scoring and strike-set completion need no
tree: they read the optimizer's sweep of the label DAG and its walk over
prefixes.  No tree is cached: each reader (the tree command, the figures
check, an isomorphism check) calls build once per tree it reads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

from .errors import InvalidInputError, LimitError, NotFoundError
from .optimizer import DEFAULT_TREE_CAP, State, _check_caps, optimal_trigger_set
from .permutations import PatternClass, Perm, _perm_str
from .tallies import Tally


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


def build(cls: PatternClass, n: int, cap: int = DEFAULT_TREE_CAP) -> PrefixTree:
    """Materialize the rank-n tree for cls with all tallies filled in.

    Raises LimitError when n exceeds DEFAULT_MAX_RANK or the class size
    exceeds cap, before any node is made.
    """
    _check_caps(cls, n, cap)
    res = optimal_trigger_set(cls, n)
    if res.value.total > cap:
        raise LimitError(f"tree for class {cls.name} at rank {n} exceeded cap {cap}")
    null = _node(res.states, (), False, 0, res.moves()[0][0])
    return PrefixTree(pattern_class=cls, rank=n, null=null, root=null.children[0])


def _node(states: list[dict[int, State]], p: Perm, eligible: bool, label: int,
          moves: tuple) -> TreeNode:
    """The node of prefix p, whose state is (len(p), label) with these
    moves, and every node below it."""
    total, z0, z1, _ = states[len(p)][label]
    return TreeNode(p, eligible, z0 if eligible else 0, z1, total, tuple(
        [_node(states, tuple([v + (v >= c) for v in p]) + (c,), el, sub, kids)
         for c, sub, _, kids, el, _ in moves]))


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


# perfbench/worker.py reads cached_tree.cache_info().hits and .misses for two
# per-layer metrics.  No tree is cached, so both read 0 until they retire.
cached_tree = SimpleNamespace(cache_info=lambda: SimpleNamespace(hits=0, misses=0))
