from __future__ import annotations

import gc
import types
from fractions import Fraction

import oracles
from beststop import (
    CLASSES,
    Tally,
    catalan,
    continuation_triangle,
    optimal_strike_set,
    optimal_trigger_set,
)

# exhaustive antichain enumeration is exponential: the unrestricted tree
# already has 24 million complete antichains at rank 5
SMALL = [(name, n) for name in CLASSES for n in range(2, 6 if name != "none" else 5)]


def set_value(members, tree, use_trigger):
    wins = total = 0
    for p in members:
        node = tree.null if p == () else tree.node(p)
        t = node.trigger if use_trigger else node.strike
        wins += t.wins
        total += t.total
    assert total == tree.total
    return Fraction(wins, total)


def test_strike_optimum_is_exhaustive_max(tree_for):
    for name, n in SMALL:
        tree = tree_for(name, n)
        got = optimal_strike_set(tree)
        values = [
            set_value(s, tree, use_trigger=False)
            for s in oracles.complete_antichains(tree)
        ]
        assert got.value.as_rational() == max(values), (name, n)
        assert set_value(got.strike_set.members, tree, False) == max(values)


def test_trigger_optimum_is_exhaustive_max(tree_for):
    for name, n in SMALL:
        tree = tree_for(name, n)
        got = optimal_trigger_set(tree)
        candidates = [frozenset(((),))] + oracles.complete_antichains(tree)
        values = [set_value(s, tree, use_trigger=True) for s in candidates]
        assert got.value.as_rational() == max(values), (name, n)
        assert set_value(got.strike_set.members, tree, True) == max(values)


def test_unrestricted_n4():
    from beststop import build, pattern_class

    tree = build(pattern_class("none"), 4)
    strike = optimal_strike_set(tree)
    assert strike.value == Tally(11, 24)
    trigger = optimal_trigger_set(tree)
    assert trigger.value == Tally(11, 24)
    # the classic cutoff rule: pass on the first candidate, take the next
    assert trigger.strike_set.members == {(1,)}


def test_av321_n5_both_modes(tree_for):
    tree = tree_for("321", 5)
    assert optimal_strike_set(tree).value == Tally(23, 42)
    assert optimal_trigger_set(tree).value == Tally(23, 42)


def test_av231_catalan_ratio_and_deepest_canonical(tree_for):
    for n in range(2, 8):
        tree = tree_for("231", n)
        got = optimal_strike_set(tree)
        assert got.value == Tally(catalan(n - 1), catalan(n))
        # ties keep the deeper strategy, so the canonical set is all leaves
        leaves = {node.prefix for node in tree.nodes() if not node.children}
        assert got.strike_set.members == leaves


def test_av231_eligible_stops_all_equal(tree_for):
    # every strike set built from eligible stops (forced stops at leaves
    # included) wins exactly catalan(n-1) times
    for n in range(2, 8):
        tree = tree_for("231", n)
        sums = oracles.reachable_win_sums(tree, eligible_only=True)
        assert sums == {catalan(n - 1)}, n


def test_av231_all_trigger_sets_equal(tree_for):
    # every complete trigger set of proper prefixes (a full-length trigger
    # has nothing left to accept, so those are excluded) wins exactly
    # catalan(n-1) times, the null trigger included
    for n in range(2, 6):
        tree = tree_for("231", n)
        assert tree.null.trigger.wins == catalan(n - 1)
        for s in oracles.complete_antichains(tree):
            if all(len(p) < n for p in s):
                total = sum(tree.node(p).trigger.wins for p in s)
                assert total == catalan(n - 1), (n, s)


def test_per_node_values_match_continuation_triangle(tree_for):
    from beststop import ballot

    t = continuation_triangle("strike", 9)
    for n in range(2, 8):
        tree = tree_for("321", n)
        per_node = optimal_strike_set(tree).per_node_values
        for k in range(1, n):
            prefix = tuple(range(1, k + 1))
            assert per_node[prefix] == Tally(t.entry(n, k), ballot(n, k)), (n, k)


def test_trigger_per_node_values(tree_for):
    t = continuation_triangle("trigger", 9)
    for n in range(2, 8):
        tree = tree_for("321", n)
        per_node = optimal_trigger_set(tree).per_node_values
        for k in range(1, n):
            prefix = tuple(range(1, k + 1))
            assert per_node[prefix].wins == t.entry(n, k), (n, k)


def test_dropped_result_is_freed_by_reference_counting(tree_for):
    # the induction's working dict and set must not sit in a reference
    # cycle, or each dropped result waits for the cyclic collector
    tree = tree_for("231", 6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for optimize in (optimal_strike_set, optimal_trigger_set):
            res = optimize(tree)
            below = res.best_below
            del res
            cells = [r for r in gc.get_referrers(below) if isinstance(r, types.CellType)]
            assert cells == [], optimize.__name__
    finally:
        if enabled:
            gc.enable()
