"""Backwards induction over a materialized prefix tree.

Working upward from the leaves, a node's continuation value is the sum of
its children's best win counts.  Every value at a node has that node's
member count as its total, so stopping replaces the continuation exactly
when the node's own wins are strictly larger (ties keep the deeper
strategy), which makes the resulting strike set canonical: its frontier
(prefixtree.frontier) of stopping nodes.  The pass keeps plain integer win
counts; per_node_values turns them into tallies keyed by prefix only when
it is read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .prefixtree import PrefixTree, StrikeSet, TreeNode, frontier
from .permutations import Perm
from .tallies import Tally


@dataclass(frozen=True)
class OptimalResult:
    """strike_set members are trigger prefixes (possibly the empty prefix)
    when produced by optimal_trigger_set.  best_below holds, for each node
    the induction visited, the best wins strictly below it (0 at a leaf)."""

    strike_set: StrikeSet
    value: Tally
    best_below: dict[TreeNode, int] = field(repr=False)

    @cached_property
    def per_node_values(self) -> dict[Perm, Tally]:
        """best_below as tallies over each node's members, keyed by prefix
        (a leaf's is 0/1); built on the first read."""
        return {node.prefix: Tally(wins, node.total) for node, wins in self.best_below.items()}


def _optimize(tree: PrefixTree, use_trigger: bool) -> OptimalResult:
    best_below: dict[TreeNode, int] = {}
    chosen: set[TreeNode] = set()

    def best(node: TreeNode) -> int:
        """The best wins over the orders below node."""
        own = node.trigger_wins if use_trigger else node.strike_wins
        if not node.children:
            # leaves stay in the strategy unless an ancestor absorbs them
            best_below[node] = 0
            return own
        below = 0
        for child in node.children:
            below += best(child)
        best_below[node] = below
        if (use_trigger or node.eligible) and own > below:
            chosen.add(node)
            return own
        return below

    start = tree.null if use_trigger else tree.root
    value = Tally(best(start), start.total)
    # best's closure refers to best itself: dropping the name breaks that
    # cycle, so a dropped result's dict and set go by reference counting
    # rather than waiting for the cyclic collector
    del best

    members = frozenset(node.prefix for node, _ in frontier(start, chosen.__contains__))
    return OptimalResult(
        strike_set=StrikeSet(members=members),
        value=value,
        best_below=best_below,
    )


def optimal_strike_set(tree: PrefixTree) -> OptimalResult:
    """Best complete strike strategy; per_node_values maps each prefix to
    the best value achievable strictly below it."""
    return _optimize(tree, use_trigger=False)


def optimal_trigger_set(tree: PrefixTree) -> OptimalResult:
    """Best complete trigger strategy; the empty prefix is a legal trigger."""
    return _optimize(tree, use_trigger=True)
