from __future__ import annotations

import gc
from fractions import Fraction
from itertools import permutations

import pytest

import oracles
from beststop import (
    AV312,
    AV321,
    CLASSES,
    InvalidInputError,
    LimitError,
    PatternClass,
    SplitMix64,
    Tally,
    catalan,
    continuation_triangle,
    game,
    optimal_strike_set,
    optimal_success_123,
    optimal_success_213,
    optimal_success_231,
    optimal_trigger_set,
)
from beststop.errors import WALK_MAX_RANK
from beststop.permutations import _label
from beststop.prefixtree import build

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
        got = optimal_strike_set(game(name, n))
        values = [
            set_value(s, tree, use_trigger=False)
            for s in oracles.complete_antichains(tree)
        ]
        assert got.value.as_rational() == max(values), (name, n)
        assert set_value(got.strike_set.members, tree, False) == max(values)


def test_trigger_optimum_is_exhaustive_max(tree_for):
    for name, n in SMALL:
        tree = tree_for(name, n)
        got = optimal_trigger_set(game(name, n))
        candidates = [frozenset(((),))] + oracles.complete_antichains(tree)
        values = [set_value(s, tree, use_trigger=True) for s in candidates]
        assert got.value.as_rational() == max(values), (name, n)
        assert set_value(got.strike_set.members, tree, True) == max(values)


def test_unrestricted_n4():
    strike = optimal_strike_set(game("none", 4))
    assert strike.value == Tally(11, 24)
    trigger = optimal_trigger_set(game("none", 4))
    assert trigger.value == Tally(11, 24)
    # the classic cutoff rule: pass on the first candidate, take the next
    assert trigger.strike_set.members == {(1,)}


def test_av321_n5_both_modes():
    assert optimal_strike_set(game(AV321, 5)).value == Tally(23, 42)
    assert optimal_trigger_set(game(AV321, 5)).value == Tally(23, 42)


def test_av231_catalan_ratio_and_deepest_canonical(tree_for):
    for n in range(2, 8):
        tree = tree_for("231", n)
        got = optimal_strike_set(game("231", n))
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


def increasing_state(k):
    # per_node_values is keyed by state: (size, label) of the prefix 12..k
    return k, _label(tuple(range(1, k + 1)), AV321.forbidden)


def test_per_node_values_match_continuation_triangle():
    from beststop import ballot

    t = continuation_triangle("strike", 12)
    for n in range(2, 13):
        per_node = optimal_strike_set(game(AV321, n)).per_node_values
        for k in range(1, n):
            assert per_node[increasing_state(k)] == Tally(t.entry(n, k), ballot(n, k)), (n, k)


def test_trigger_per_node_values():
    t = continuation_triangle("trigger", 12)
    for n in range(2, 13):
        per_node = optimal_trigger_set(game(AV321, n)).per_node_values
        for k in range(1, n):
            assert per_node[increasing_state(k)].wins == t.entry(n, k), (n, k)


def test_dropped_result_is_freed_by_reference_counting():
    # the sweep's per-depth dicts and the listing walk must not sit in a
    # reference cycle, or each dropped result waits for the cyclic collector
    from beststop import (Strategy, completion, exact_success, sample_uniform, simulate,
                          successors, threshold_strategy)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for optimize in (optimal_strike_set, optimal_trigger_set):
            res = optimize(game(AV312, 8))
            assert len(res.strike_set.members) > 0
            assert res.per_node_values
            del res
            assert gc.collect() == 0, optimize.__name__
        # one game read by every reader and by both views: the views hold
        # the game, the game holds no view
        g = game(AV312, 8)
        views = optimal_strike_set(g), optimal_trigger_set(g)
        for res in views:
            assert res.strike_set.members and res.per_node_values and res.value
        full = completion([(1, 2)], g).members
        assert successors(g, (1,)) and sample_uniform(g, SplitMix64(1))
        for s in (Strategy(kind="strike", members=full, rank=8),
                  threshold_strategy("trigger", AV312, 8)):
            assert exact_success(s, g).total == catalan(8)
            assert simulate(s, g, trials=10).trials == 10
        del g, views, res, full, s
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(oracles.FORBIDDEN))
def test_dag_matches_tree_oracle(name):
    # the label DAG against backward induction on every node of the built
    # tree: the same member set and value, and each node's best below is
    # its state's; classes with no members at a rank are refused by both
    cls = PatternClass(name, oracles.FORBIDDEN[name])
    for n in range(1, 8 if name == "none" else 10):
        try:
            tree = build(cls, n)
        except InvalidInputError:
            for optimize in (optimal_strike_set, optimal_trigger_set):
                with pytest.raises(InvalidInputError):
                    optimize(game(cls, n))
            continue
        for use_trigger, optimize in ((False, optimal_strike_set), (True, optimal_trigger_set)):
            members, wins, best_below = oracles.optimize_tree(tree, use_trigger)
            res = optimize(game(cls, n))
            assert res.value == Tally(wins, tree.total), (name, n, use_trigger)
            assert res.strike_set.members == members, (name, n, use_trigger)
            per_state = res.per_node_values
            for node, below in best_below.items():
                label = _label(node.prefix, cls.forbidden) if node.prefix else 0
                state = per_state[len(node.prefix), label]
                assert state == Tally(below, node.total), (name, n, use_trigger, node.prefix)


def test_first_hits_matches_definition():
    # the first hits from start: in preorder, the prefixes where hit holds
    # with no hitting proper ancestor below start, and the leaves with none,
    # each with its state and eligibility
    def preorder(node, hit, above=False):
        """Each node below node with whether hit holds above it."""
        yield node, above
        for child in node.children:
            yield from preorder(child, hit, above or hit(node))

    for name, forbidden in oracles.FORBIDDEN.items():
        top = {"none": 5, "mono": 4}.get(name, 6)
        cls = PatternClass(name, forbidden)
        for n in range(1, top + 1):
            tree = build(cls, n)
            g = game(cls, n)
            # both mode views walk their one game
            res, strike = optimal_trigger_set(g).game, optimal_strike_set(g).game
            rng = SplitMix64(n)
            # an antichain of any prefixes, drawn by coin flips down the tree
            chain = {p for p, *_ in res.first_hits(lambda *state: rng.below(3) < 1)}
            for hit in (lambda p, k, label, el: el, lambda p, k, label, el: p in chain,
                        lambda *state: False, lambda *state: True):

                def visit(node):
                    # the walk hands hit, and yields, each prefix as bytes
                    p = node.prefix
                    state = (bytes(p), len(p), _label(p, forbidden) if p else 0, node.eligible)
                    return *state, hit(*state)

                for start in (tree.null, *tree.nodes()):
                    want = [visit(node) for node, above in preorder(start, lambda x: visit(x)[-1])
                            if not above and (visit(node)[-1] or not node.children)]
                    assert list(res.first_hits(hit, start=start.prefix)) == want, \
                        (name, n, start.prefix)
                    assert res.state(start.prefix) == visit(start)[1:3]
                # the walk starts at the null prefix in either mode
                assert list(res.first_hits(hit)) == list(res.first_hits(hit, start=()))
                assert list(strike.first_hits(hit)) == list(res.first_hits(hit, start=()))
            # one sweep holds the null prefix for both modes
            assert strike.state(()) == res.state(()) == (0, 0)


@pytest.mark.parametrize("cls", [*sorted(CLASSES), PatternClass("132+321", ((1, 3, 2), (3, 2, 1)))],
                         ids=str)
def test_stops_list_the_walks_first_hits(cls):
    # the unfold by state groups lists, in its own order and each once, the
    # prefixes where the game's preorder walk stops
    for n in range(1, 10):
        g = game(cls, n)
        for res in (optimal_strike_set(g), optimal_trigger_set(g)):
            got = list(res.stops())
            assert len(got) == len(set(got)), (cls, n, res.mode)
            assert set(got) == set(oracles.stops_by_first_hits(res)), (cls, n, res.mode)


def test_walks_hold_ranks_up_to_a_byte():
    # the walks carry prefixes as bytes: the class whose only member at each
    # rank is the decreasing order stays under the member cap, so its walk
    # answers at rank 255 and is refused, before any step, past it
    only_321 = PatternClass("only-321", tuple(p for p in permutations((1, 2, 3))
                                              if p != (3, 2, 1)))
    g = game(only_321, WALK_MAX_RANK)
    top = tuple(range(WALK_MAX_RANK, 0, -1))
    assert [hit[:2] for hit in g.first_hits(lambda *state: False)] == [(bytes(top),
                                                                         WALK_MAX_RANK)]
    assert optimal_strike_set(g).strike_set.members == {(1,)}
    g = game(only_321, WALK_MAX_RANK + 1)
    for walk in (g.first_hits(lambda *state: False), optimal_strike_set(g).stops()):
        with pytest.raises(LimitError, match="past 255"):
            next(walk)


def test_values_past_the_tree_cap_match_closed_forms():
    # no tree is built, so the ranks run past the tree's cap of 12
    for n in range(2, 31):
        assert optimal_strike_set(game("231", n)).value == optimal_success_231(n), n
        assert optimal_strike_set(game("123", n)).value == optimal_success_123(n)[1], n
        assert optimal_strike_set(game("213", n)).value == optimal_success_213(n)[1], n
        want = continuation_triangle("strike", n).value(n, 1)
        assert optimal_strike_set(game(AV321, n)).value == want, n
    # the West correspondence carries the 321 game to the 312 game
    for n in range(1, 13):
        for optimize in (optimal_strike_set, optimal_trigger_set):
            assert optimize(game(AV312, n)).value == optimize(game(AV321, n)).value, \
                (n, optimize.__name__)


def test_moves_are_built_once_per_result(monkeypatch, capsys):
    # every reader of one result's moves shares one build: the listing, each
    # walk and simulate's walk table; tree --prefix reads one sweep's
    # moves for the node's children and for its successors
    import beststop.cli
    import beststop.optimizer
    import beststop.strategy

    opened, calls = beststop.optimizer._opened, []

    def counted(cls, n):
        calls.append((cls.name, n))
        return opened(cls, n)

    g = game(AV312, 7)
    res = optimal_strike_set(g)
    monkeypatch.setattr(beststop.optimizer, "_opened", counted)
    assert res.strike_set.members
    for hit in (lambda *state: state[3], lambda *state: False):
        assert list(g.first_hits(hit))
    beststop.strategy._draw_table(beststop.strategy.threshold_strategy("trigger", AV312, 7), g)
    assert calls == [("312", 7)]
    for flags in ((), ("--json",)):
        calls.clear()
        assert beststop.cli.main(["tree", "--class", "231", "--n", "6", "--prefix", "12",
                                  *flags]) == 0
        assert calls == [("231", 6)] * 2, flags  # the sweep's and the moves'
    capsys.readouterr()


def test_state_counts():
    # n(n+1)/2 states at rank n for 231, 321, 123 and 213, 2^n - 1 for 132
    # and 312, one a depth for the unrestricted class
    assert len(optimal_strike_set(game("231", 10)).per_node_values) == 55
    assert len(optimal_strike_set(game(AV312, 10)).per_node_values) == 1023
    assert len(optimal_strike_set(game("none", 8)).per_node_values) == 8
    # trigger mode adds the null prefix's state
    assert len(optimal_trigger_set(game("none", 8)).per_node_values) == 9


def test_caps(monkeypatch):
    import beststop.optimizer

    # listing the set is refused past the tree's member cap, the value is not
    res = optimal_strike_set(game("231", 15))
    assert res.value == optimal_success_231(15)
    with pytest.raises(LimitError, match="over the cap"):
        res.strike_set
    listing = res.stops()  # refused on its first next(), as the walk is
    with pytest.raises(LimitError, match="over the cap"):
        next(listing)
    # the sweep is refused past its cap in states, counted as it goes
    monkeypatch.setattr(beststop.optimizer, "DAG_STATE_CAP", 1023)
    assert optimal_strike_set(game(AV312, 9)).value.total == catalan(9)
    with pytest.raises(LimitError, match="cap of 1023 states"):
        optimal_strike_set(game(AV312, 10))
    with pytest.raises(InvalidInputError):
        optimal_strike_set(game(AV312, 0))
