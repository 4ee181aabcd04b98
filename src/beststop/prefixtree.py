"""Materialized tree of prefix flattenings with exact strike/trigger tallies,
the oracle that the game's one walk (optimizer.Game.walk) is checked
against: no module of the package reads a tree.

Nodes at depth k are the rank-k members of the class; the children of a node
are its one-entry extensions inside the class.  Leaves sit at depth N (the
rank of the game).  Each node carries two tallies over the members beneath
it:

  strike  - wins counts completions whose top value N arrives exactly at
            this prefix's last position (stopping here wins those),
  trigger - wins counts completions for which rejecting the current
            candidate and accepting the next left-to-right maximum wins.

A virtual null node above the root represents the empty prefix, which is a
legal trigger point but never a strike point.  build unfolds one game along
its moves: a node is its state's member total, z0 (its strike wins when
eligible) and z1 (its trigger wins).  perfbench traces build and reads index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Iterator, Sequence

from .errors import DEFAULT_TREE_CAP, LimitError, NotFoundError
from .optimizer import State, _check_caps, game
from .permutations import PatternClass, Perm, _shifts
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
        first read, so only node lookups pay for it."""
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
    exceeds cap, before any node is made.  The nodes unfold the sweep's
    states along its moves."""
    _check_caps(cls, n, cap)
    g = game(cls, n)
    if g.states[0][0][0] > cap:
        raise LimitError(f"tree for class {cls.name} at rank {n} exceeded cap {cap}")
    null = _node(g.states, _shifts(n), b"", False, 0, g.moves[0][0])
    return PrefixTree(pattern_class=cls, rank=n, null=null, root=null.children[0])


def _node(states: list[dict[int, State]], steps: tuple[list[bytes], list[bytes]], p: bytes,
          eligible: bool, label: int, moves: tuple) -> TreeNode:
    """The node of prefix p, held as bytes and stepped by steps, the tables
    of permutations._shifts, whose state is (len(p), label) with these
    moves, and every node below it."""
    total, z0, z1, _, _ = states[len(p)][label]
    shift, last = steps
    return TreeNode(tuple(p), eligible, z0 if eligible else 0, z1, total, tuple(
        [_node(states, steps, p.translate(shift[c]) + last[c], el, sub, kids)
         for c, sub, _, kids, el in moves]))


# perfbench/worker.py reads cached_tree.cache_info().hits and .misses for two
# per-layer metrics.  No tree is cached, so both read 0 until they retire.
cached_tree = SimpleNamespace(cache_info=lambda: SimpleNamespace(hits=0, misses=0))
