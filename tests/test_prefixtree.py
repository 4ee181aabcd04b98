from __future__ import annotations

import gc
import json
import re
import tracemalloc

import pytest

import oracles
from beststop import (
    CLASSES,
    AV231,
    UNRESTRICTED,
    IncompleteStrategyError,
    InvalidInputError,
    LimitError,
    NotFoundError,
    PatternClass,
    Strategy,
    Tally,
    completion,
    exact_success,
    game,
    pattern_class,
    successors,
)
from beststop.cli import main
from beststop.permutations import _free, _opened, _relabel, child_indices
from beststop.prefixtree import build

SMALL = [(name, n) for name in CLASSES for n in range(2, 6)]


def strike_value(members, name, n):
    return exact_success(Strategy(kind="strike", members=frozenset(members), rank=n),
                         game(name, n))


def assert_tallies_match_oracle(tree, members):
    assert tree.total == len(members)
    for node in tree.nodes():
        s = oracles.strike_tally(node.prefix, members)
        t = oracles.trigger_tally(node.prefix, members)
        if node.eligible:
            assert (node.strike.wins, node.strike.total) == s, node.prefix
        else:
            # stopping on a non-candidate can never win
            assert node.strike.wins == 0
            assert node.strike.total == s[1]
        assert (node.trigger.wins, node.trigger.total) == t, node.prefix
    null = oracles.trigger_tally((), members)
    assert (tree.null.trigger.wins, tree.null.trigger.total) == null
    # the index holds exactly the null prefix and every member's prefixes
    prefixes = {oracles.flat(w[:k]) for w in members for k in range(1, len(w) + 1)}
    assert set(tree.index) == prefixes | {()}
    assert all(tree.index[node.prefix] is node for node in tree.nodes())


def test_every_tally_matches_oracle(tree_for):
    for name, n in SMALL:
        assert_tallies_match_oracle(tree_for(name, n), oracles.members(name, n))


@pytest.mark.parametrize("name, top", [("mono", 4), ("pair", 5)])
def test_pruned_trees_match_oracle(name, top):
    # two-pattern classes leave some prefixes with no completion at the
    # rank of the game; build must drop those subtrees
    from beststop import PatternClass

    cls = PatternClass(name, oracles.FORBIDDEN[name])
    for n in range(1, top + 1):
        assert_tallies_match_oracle(build(cls, n), oracles.members(name, n))
    if name == "mono":
        rank4 = build(cls, 4)
        assert (1, 3, 2) not in rank4.index and (3, 1, 2) not in rank4.index
        assert {(2, 1, 3), (2, 3, 1)} <= set(rank4.index)
        with pytest.raises(InvalidInputError):
            build(cls, 5)  # Av(123, 321) is empty from rank 5


def _fields(node):
    return (node.prefix, node.eligible, node.strike_wins, node.trigger_wins,
            node.total, [c.prefix for c in node.children])


def assert_same_build(cls, n, **kw):
    """build and the scan-based oracle agree on every node, in the same
    order, or refuse with the same error."""
    try:
        want = oracles.build_by_scan(cls, n, **kw)
    except (InvalidInputError, LimitError) as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            build(cls, n, **kw)
        return
    got = build(cls, n, **kw)
    assert list(got.index) == list(want.index), (cls.name, n)
    assert _fields(got.null) == _fields(want.null), (cls.name, n)
    assert [_fields(a) for a in got.nodes()] == [_fields(b) for b in want.nodes()], (cls.name, n)


def test_build_matches_scan_oracle():
    for name, forbidden in oracles.FORBIDDEN.items():
        for n in range(1, 9):
            assert_same_build(PatternClass(name, forbidden), n)
    pair = PatternClass("pair", oracles.FORBIDDEN["pair"])
    for cls, n, cap in [(UNRESTRICTED, 0, 100), (UNRESTRICTED, 13, 100),
                        (UNRESTRICTED, 10, 1_000_000), (UNRESTRICTED, 5, 100), (pair, 5, 10)]:
        assert_same_build(cls, n, cap=cap)


def test_label_children_match_child_indices():
    # each node's label, stepped down the tree from the null node's 0,
    # allows exactly the values child_indices finds by stepping the label
    # along its prefix, and those the oracle's interval scan finds
    for name, forbidden in oracles.FORBIDDEN.items():
        cls = PatternClass(name, forbidden)
        n = 4 if name == "mono" else 8  # Av(123, 321) is empty from rank 5
        opened = _opened(cls, n)
        stack = [(build(cls, n).null, 0)]
        while stack:
            node, label = stack.pop()
            k = len(node.prefix)
            assert _free(label, k) == sorted(child_indices(node.prefix, cls)), (name, node.prefix)
            assert _free(label, k) == oracles.children_by_scan(node.prefix, cls), (name, node.prefix)
            for child in node.children:
                c = child.prefix[-1]
                stack.append((child, _relabel(label, c, opened[k][c])))


def test_eligibility_flags(tree_for):
    tree = tree_for("321", 5)
    for node in tree.nodes():
        assert node.eligible == (node.prefix[-1] == len(node.prefix))
    assert not tree.null.eligible


def test_structure(tree_for):
    tree = tree_for("231", 4)
    assert tree.root.prefix == (1,)
    assert tree.null.children == (tree.root,)
    assert tree.node((2, 1, 3)).prefix == (2, 1, 3)
    with pytest.raises(NotFoundError):
        tree.node((2, 3, 1))  # forbidden pattern, not in this tree
    leaves = [node for node in tree.nodes() if not node.children]
    assert len(leaves) == tree.total


def test_prob_accessors(tree_for):
    tree = tree_for("321", 4)
    assert str(tree.node((1, 2)).strike) == "3/9"
    assert str(tree.null.trigger) == "1/14"
    assert tree.node(()) is tree.null
    trigger = tree.node((1, 2)).trigger
    assert (trigger.wins, trigger.total) == oracles.trigger_tally((1, 2), oracles.members("321", 4))


def test_index_built_on_first_read():
    # build keeps no prefix index; the first point lookup makes it from
    # the null node and nodes()
    for name, n in [("231", 6), ("none", 4)]:
        tree = build(pattern_class(name), n)
        assert "index" not in vars(tree)
        assert list(tree.index) == [()] + [node.prefix for node in tree.nodes()]
        assert "index" in vars(tree)
        assert tree.index[()] is tree.null
        assert all(tree.node(node.prefix) is node for node in tree.nodes())


def test_successors_match_definition(tree_for):
    # successors of eligible p: descendants whose longest proper eligible
    # prefix is p itself
    from beststop import is_eligible, prefix_flattening

    for name, n in [("321", 5), ("231", 5), ("none", 4)]:
        tree, g = tree_for(name, n), game(name, n)
        for node in tree.nodes():
            if not node.eligible or not node.children:
                continue
            want = set()
            for other in tree.nodes():
                q = other.prefix
                if len(q) <= len(node.prefix):
                    continue
                longest = None
                for j in range(len(q) - 1, 0, -1):
                    if is_eligible(prefix_flattening(q, j)):
                        longest = prefix_flattening(q, j)
                        break
                if longest == node.prefix and (other.eligible or not other.children):
                    want.add(q)
            got = set(successors(g, node.prefix))
            assert got == want, (name, n, node.prefix)


def test_successors_rejects_ineligible():
    with pytest.raises(InvalidInputError):
        successors(game("321", 4), (2, 1))


def test_strike_mediant_over_successors(tree_for):
    # 231-avoiding: the strike tally of an eligible prefix is the mediant
    # of its successors' strike tallies: wins and totals both add up
    for n in range(2, 7):
        tree, g = tree_for("231", n), game("231", n)
        for node in tree.nodes():
            if not node.eligible or not node.children:
                continue
            parts = [tree.node(q).strike for q in successors(g, node.prefix)]
            mediant = Tally(sum(t.wins for t in parts), sum(t.total for t in parts))
            assert mediant == node.strike, (n, node.prefix)


def test_trigger_mediant_over_children(tree_for):
    # 231-avoiding: the trigger tally of any prefix is the mediant of its
    # children's trigger tallies.  Stops above the leaves: a full-length
    # trigger has nothing left to accept, so its tally is 0 regardless.
    for n in range(2, 7):
        tree = tree_for("231", n)
        for node in [tree.null, *tree.nodes()]:
            if not node.children or not node.children[0].children:
                continue
            parts = [c.trigger for c in node.children]
            mediant = Tally(sum(t.wins for t in parts), sum(t.total for t in parts))
            assert mediant == node.trigger, (n, node.prefix)


def test_trigger_figure_231(tree_for):
    tree = tree_for("231", 4)
    want = {
        (): "5/14",
        (1,): "5/14",
        (1, 2): "2/5",
        (2, 1): "3/9",
        (1, 2, 3): "1/2",
        (1, 3, 2): "1/3",
        (2, 1, 3): "1/2",
        (3, 1, 2): "1/3",
        (3, 2, 1): "1/4",
    }
    for p, text in want.items():
        assert str(tree.node(p).trigger) == text, p


def test_completion():
    full = completion([(1, 2), (2, 1, 3), (3, 1, 2, 4), (3, 2, 1, 4)], game("none", 4))
    added = full.members - {(1, 2), (2, 1, 3), (3, 1, 2, 4), (3, 2, 1, 4)}
    assert added == {
        (4, 1, 2, 3),
        (4, 1, 3, 2),
        (4, 2, 1, 3),
        (4, 2, 3, 1),
        (4, 3, 1, 2),
        (4, 3, 2, 1),
    }
    with pytest.raises(NotFoundError):
        completion([(9, 1, 2)], game("none", 4))  # wrong rank, not a node
    with pytest.raises(InvalidInputError):
        completion([(1, 2), (1, 2, 3, 4)], game("none", 4))  # nested pair
    # the sweep holds the null prefix's state, but it is no strike point
    with pytest.raises(NotFoundError, match=r"^prefix \(\) is not a node of the rank-4 tree "
                                            "for class 231$"):
        completion([()], game("231", 4))


def test_evaluate_strike(tree_for):
    tree = tree_for("none", 4)
    full = completion([(1, 2), (2, 1, 3), (3, 1, 2, 4), (3, 2, 1, 4)], game("none", 4))
    assert strike_value(full.members, "none", 4) == Tally(11, 24)
    # all leaves: win exactly when the best candidate is interviewed last
    leaves = [node.prefix for node in tree.nodes() if not node.children]
    assert strike_value(leaves, "none", 4) == Tally(6, 24)
    with pytest.raises(IncompleteStrategyError):
        strike_value([(1, 2)], "none", 4)  # not complete


def test_random_completions_partition(tree_for):
    from beststop import SplitMix64

    rng = SplitMix64(2024)
    for name, n in [("321", 5), ("132", 5), ("none", 4)]:
        tree = tree_for(name, n)
        for _ in range(20):
            base = oracles.random_eligible_antichain(tree, rng)
            full = completion(base, game(name, n)).members
            value = strike_value(full, name, n)
            assert value.total == tree.total
            # the members' subtrees cover every order exactly once
            assert sum(tree.node(p).strike.total for p in full) == tree.total


def test_tree_to_dict(capsys):
    # the command line's whole-tree JSON, written off the game's walk, is
    # the oracle's rendering of the scan-built tree
    assert main(["tree", "--class", "231", "--n", "3", "--json"]) == 0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert d["prefix"] == "1"
    assert d["strike"] == "2/5"
    assert {c["prefix"] for c in d["children"]} == {"12", "21"}
    assert out == oracles.render_tree(oracles.build_by_scan(AV231, 3), as_json=True)


def test_tree_bytes_per_node():
    # each node is a slots object with its prefix and children tuples; its
    # counts are plain ints and build fills no index (measured about 211 B
    # per node at the peak, the label-DAG sweep build reads included; 206 B
    # when build counted the wins itself, 250 B when it also filled the
    # prefix index, 295 B with the scan-based build of tests/oracles.py,
    # 460 B when every node held two Tally objects)
    tracemalloc.start()
    try:
        tree = build(AV231, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(tree.index) <= 380


def test_dropped_tree_is_freed_by_reference_counting():
    # nothing build leaves behind may keep a dropped tree alive until the
    # cyclic collector runs
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = build(UNRESTRICTED, 8)
        assert tree.total == 40320
        del tree
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_refused_build_is_freed_by_reference_counting():
    # the sweep of a build the member cap refused goes by reference
    # counting too
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            build(PatternClass("pair", oracles.FORBIDDEN["pair"]), 12, cap=1000)
        except LimitError:
            pass
        else:
            raise AssertionError("the member cap did not refuse the build")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_build_limits(monkeypatch):
    with pytest.raises(LimitError):
        build(UNRESTRICTED, 13)
    # 10! members are over the default member cap: refused before any
    # sweep or node
    import beststop.optimizer
    import beststop.prefixtree

    def no_growth(*args):
        raise AssertionError("build started sweeping or growing the tree")

    with monkeypatch.context() as m:
        m.setattr(beststop.optimizer, "_free", no_growth)
        m.setattr(beststop.prefixtree, "_node", no_growth)
        with pytest.raises(LimitError, match="3628800 members .* over the cap 1000000"):
            build(UNRESTRICTED, 10)
    with pytest.raises(LimitError):
        build(UNRESTRICTED, 5, cap=100)
    with pytest.raises(InvalidInputError):
        build(UNRESTRICTED, 0)
    # unknown-size classes are refused once the sweep has counted them
    from beststop import PatternClass

    lazy = PatternClass("pair", ((1, 3, 2), (2, 1, 3)))
    with pytest.raises(LimitError):
        build(lazy, 5, cap=10)


def test_unknown_size_refusal_makes_no_node(monkeypatch):
    # the sweep counts the members of a class of unknown size, so the member
    # cap refuses it before any node is made
    import beststop.prefixtree

    def no_node(*args):
        raise AssertionError("build made a node")

    monkeypatch.setattr(beststop.prefixtree, "_node", no_node)
    with pytest.raises(LimitError, match="tree for class pair at rank 12 exceeded cap 1000$"):
        build(PatternClass("pair", oracles.FORBIDDEN["pair"]), 12, cap=1000)
