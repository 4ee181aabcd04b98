"""Backwards induction over a materialized prefix tree.

Working upward from the leaves, a node's continuation value is the sum of
its children's best win counts.  Every value at a node has that node's
member count as its total, so stopping replaces the continuation exactly
when the node's own wins are strictly larger (ties keep the deeper
strategy), which makes the resulting strike set canonical.
"""
from __future__ import annotations

from dataclasses import dataclass

from .prefixtree import PrefixTree, StrikeSet, TreeNode
from .permutations import Perm
from .tallies import Tally


@dataclass(frozen=True)
class OptimalResult:
    """strike_set members are trigger prefixes (possibly the empty prefix)
    when produced by optimal_trigger_set."""

    strike_set: StrikeSet
    value: Tally
    per_node_values: dict[Perm, Tally]


def _optimize(tree: PrefixTree, use_trigger: bool) -> OptimalResult:
    per_node: dict[Perm, Tally] = {}
    chosen: set[Perm] = set()

    def best(node: TreeNode) -> int:
        """The best wins over the orders below node."""
        own = node.trigger_wins if use_trigger else node.strike_wins
        if not node.children:
            # leaves stay in the strategy unless an ancestor absorbs them
            per_node[node.prefix] = Tally(0, 1)
            return own
        below = sum(best(c) for c in node.children)
        per_node[node.prefix] = Tally(below, node.total)
        if (use_trigger or node.eligible) and own > below:
            chosen.add(node.prefix)
            return own
        return below

    start = tree.null if use_trigger else tree.root
    value = Tally(best(start), start.total)

    members: list[Perm] = []

    def collect(node: TreeNode) -> None:
        if node.prefix in chosen or node.is_leaf():
            members.append(node.prefix)
            return
        for child in node.children:
            collect(child)

    collect(start)
    return OptimalResult(
        strike_set=StrikeSet(members=frozenset(members)),
        value=value,
        per_node_values=per_node,
    )


def optimal_strike_set(tree: PrefixTree) -> OptimalResult:
    """Best complete strike strategy; per_node_values maps each prefix to
    the best value achievable strictly below it."""
    return _optimize(tree, use_trigger=False)


def optimal_trigger_set(tree: PrefixTree) -> OptimalResult:
    """Best complete trigger strategy; the empty prefix is a legal trigger."""
    return _optimize(tree, use_trigger=True)
