from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import beststop.optimizer
import beststop.strategy
import oracles
from beststop import (
    AV312,
    CLASSES,
    AV321,
    DepthError,
    IncompleteStrategyError,
    InvalidInputError,
    LimitError,
    PatternClass,
    SplitMix64,
    Strategy,
    Tally,
    catalan,
    cmp_as_rational,
    completion,
    continuation_triangle,
    enumerate_class,
    exact_success,
    game,
    optimal_boundary,
    optimal_strike_set,
    optimal_trigger_set,
    parse_strategy,
    pattern_class,
    play,
    sample_uniform,
    simulate,
    threshold_strategy,
)
from beststop.permutations import _label, is_eligible, perm_to_str
from beststop.prefixtree import build
from beststop.rng import walk_node, walks
from beststop.strategy import DRAW_CAP, member_names, members_str


def test_play_strike_trace():
    s = Strategy(kind="strike", members=frozenset({(1, 2)}))
    trace = play(s, (1, 3, 2))
    assert trace.stop_position == 2
    assert trace.stopped_value_is_max  # stopped on 3, the maximum
    acts = [(d.position, d.prefix, d.action) for d in trace.decisions]
    assert acts == [(1, (1,), "pass"), (2, (1, 2), "accept")]


def test_play_strike_forced_losing_stop():
    s = Strategy(kind="strike", members=frozenset({(1, 2), (2, 1)}))
    trace = play(s, (2, 1))
    assert trace.stop_position == 2
    assert not trace.stopped_value_is_max


def test_play_strike_uncovered_order():
    s = Strategy(kind="strike", members=frozenset({(2, 1)}))
    with pytest.raises(IncompleteStrategyError):
        play(s, (1, 2))


def test_play_trigger_trace():
    s = Strategy(kind="trigger", members=frozenset({(1,)}))
    trace = play(s, (2, 3, 1, 4))
    assert trace.stop_position == 2
    assert not trace.stopped_value_is_max  # accepted 3, but the max is 4
    acts = [(d.position, d.action) for d in trace.decisions]
    assert acts == [(0, "pass"), (1, "arm"), (2, "accept")]


def test_play_trigger_never_accepts():
    # arming on the last entry leaves nothing to accept: forced loss
    s = Strategy(kind="trigger", members=frozenset({(1, 2, 3)}))
    trace = play(s, (1, 2, 3))
    assert trace.stop_position == 3
    assert not trace.stopped_value_is_max


def test_play_null_trigger_accepts_first_candidate():
    s = Strategy(kind="trigger", members=frozenset({()}))
    trace = play(s, (2, 1, 3))
    assert trace.stop_position == 1
    assert trace.decisions[0].action == "arm"
    assert not trace.stopped_value_is_max


def test_play_positional_trace():
    s = Strategy(kind="positional", position=2)
    trace = play(s, (1, 3, 2, 4))
    acts = [(d.position, d.action) for d in trace.decisions]
    assert acts == [(0, "pass"), (1, "pass"), (2, "arm"), (3, "pass"), (4, "accept")]
    assert trace.stopped_value_is_max


def test_positional_zero_equals_null_trigger():
    pos = Strategy(kind="positional", position=0)
    nul = Strategy(kind="trigger", members=frozenset({()}))
    for n in range(1, 6):
        for w in oracles.members("231", n):
            a = play(pos, w)
            b = play(nul, w)
            assert (a.stop_position, a.stopped_value_is_max) == (
                b.stop_position,
                b.stopped_value_is_max,
            )


def sweep_strategies(cls, n, tree):
    """The strategies the exact scorer is checked on at rank n."""
    out = [Strategy(kind="positional", position=k, rank=n) for k in range(n + 1)]
    out.append(parse_strategy("trigger:{null}", cls, n))
    out.append(Strategy(kind="trigger", members=frozenset({(1,), (1, 2)}), rank=n))
    base = oracles.random_eligible_antichain(tree, SplitMix64(n))
    out.append(Strategy(kind="strike", members=completion(base, game(cls, n)).members, rank=n))
    if cls.name in ("321", "312"):
        for mode in ("strike", "trigger"):
            out.append(threshold_strategy(mode, cls, n))
    return out


def test_exact_success_matches_manual_loop():
    # the play-every-order loop is the oracle for scoring on the tree
    for name, forbidden in oracles.FORBIDDEN.items():
        top = {"none": 5, "mono": 4}.get(name, 6)
        cls = PatternClass(name, forbidden)
        for n in range(1, top + 1):
            members = oracles.members(name, n)
            tree, g = build(cls, n), game(cls, n)
            for s in sweep_strategies(cls, n, tree):
                want = sum(play(s, w).stopped_value_is_max for w in members)
                got = exact_success(s, g)
                assert (got.wins, got.total) == (want, len(members)), (name, n, s.describe())
            if n > 1:
                uncovered = Strategy(kind="strike", members=frozenset({(2, 1)}))
                with pytest.raises(IncompleteStrategyError):
                    exact_success(uncovered, g)
    # a trigger set covering only one prefix scores that prefix's tally
    s = Strategy(kind="trigger", members=frozenset({(1, 2)}))
    got = exact_success(s, game("321", 4))
    assert got.wins == oracles.trigger_tally((1, 2), oracles.members("321", 4))[0]
    shallow = optimal_boundary(continuation_triangle("strike", 6))
    for mode in ("strike", "trigger"):
        s = Strategy(kind="threshold", mode=mode, sigma=shallow, pattern_class=AV321)
        with pytest.raises(DepthError):
            exact_success(s, game("321", 7))


def test_simulate_matches_play_on_the_same_draws(monkeypatch):
    # play, prefix by prefix, over sample_uniform's draws is the oracle for
    # simulate's walk table
    trials = 60
    for name, forbidden in oracles.FORBIDDEN.items():
        top = {"none": 5, "mono": 4}.get(name, 6)
        cls = PatternClass(name, forbidden)
        for n in range(1, top + 1):
            tree, g = build(cls, n), game(cls, n)
            for seed, s in enumerate(sweep_strategies(cls, n, tree)):
                rng = SplitMix64(seed)
                want = sum(play(s, sample_uniform(g, rng)).stopped_value_is_max
                           for _ in range(trials))
                got = simulate(s, g, trials=trials, seed=seed)
                assert got.wins == want, (name, n, s.describe())
    # an incomplete strike set is refused before any draw, at the leaf
    # exact_success names
    def no_draw(*args):
        raise AssertionError("simulate drew a path")

    monkeypatch.setattr(beststop.strategy, "walks", no_draw)
    uncovered = Strategy(kind="strike", members=frozenset({(2, 1)}))
    for name, leaf in (("321", "3412"), ("231", "1432"), ("none", "3421")):
        with pytest.raises(IncompleteStrategyError) as exact:
            exact_success(uncovered, game(name, 4))
        with pytest.raises(IncompleteStrategyError) as sim:
            simulate(uncovered, game(name, 4), trials=10)
        assert str(sim.value) == str(exact.value)
        assert f"never fired on {leaf};" in str(exact.value), name
    # the guard sees the walk: a complete set draws
    with pytest.raises(AssertionError, match="drew a path"):
        simulate(Strategy(kind="strike", members=frozenset({(1,)})), game("321", 4), trials=1)


def test_simulate_refuses_an_incomplete_set_from_its_table(monkeypatch):
    # simulate and exact_success find an uncovered leaf in their walk
    # table, and walk the first hits only to name it: with that walk
    # refused, a complete strike set still scores and simulates, and an
    # incomplete one still raises before any word is drawn
    uncovered = Strategy(kind="strike", members=frozenset({(2, 1)}))
    complete = parse_strategy("strike:{1}", "231", 6)

    def refuse(*args, **kwargs):
        raise AssertionError("walked the first hits")

    def no_draw(*args):
        raise AssertionError("drew a path")

    monkeypatch.setattr(beststop.optimizer.Game, "first_hits", refuse)
    assert simulate(complete, game("231", 6), trials=1000, seed=9).wins == 306
    assert exact_success(complete, game("231", 6)) == Tally(catalan(5), catalan(6))
    monkeypatch.setattr(beststop.strategy, "walks", no_draw)
    for name in ("321", "231", "none", "312"):
        with pytest.raises(AssertionError, match="^walked the first hits$"):
            simulate(uncovered, game(name, 5), trials=10)


@pytest.mark.parametrize("forbidden", [((1, 2, 3), (2, 3, 1)), ((2, 1, 3), (3, 2, 1))])
def test_simulate_settles_single_member_states(forbidden):
    # in these classes some prefixes short of rank n have one completion:
    # a walk ends there with no word drawn, and the node's wins, summed
    # along its one path, are 0 or 1
    cls = PatternClass("two", forbidden)
    ended_on_settled = 0
    for n in range(4, 8):
        tree, g = build(cls, n), game(cls, n)
        for seed, s in enumerate(sweep_strategies(cls, n, tree)):
            raw, wins = beststop.strategy._draw_table(s, g)
            table = [walk_node(*node) for node in raw]
            settled = {i for i, (total, _, _, kids) in enumerate(table) if total == 1}
            assert settled and all(len(table[i][3]) == 1 for i in settled)
            # walks against the word-by-word walk, trial by trial, which
            # draws as many words a trial as sample_uniform
            rng, oracle = SplitMix64(seed), SplitMix64(seed)
            for end in walks(table, seed, 40):
                assert end == oracles.walk_by_words(oracle, table, 0)
                ended_on_settled += end in settled and wins[end]
                assert wins[end] == play(s, sample_uniform(g, rng)).stopped_value_is_max
                assert oracle.state == rng.state
    assert ended_on_settled


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_simulate_matches_play_at_rank_8(name):
    # the same differential for every CLI class at rank 8, with trigger sets
    # that hold null, deep prefixes and no null added to every kind
    cls, n, trials = CLASSES[name], 8, 100
    tree, g = build(cls, n), game(cls, n)
    base = oracles.random_eligible_antichain(tree, SplitMix64(99))
    strategies = sweep_strategies(cls, n, tree) + [
        Strategy(kind="trigger", members=frozenset(base), rank=n),
        Strategy(kind="trigger", members=frozenset(base) | {()}, rank=n),
        Strategy(kind="trigger", members=frozenset({(), (2, 1)}), rank=n),
    ]
    assert {s.kind for s in strategies} >= {"strike", "trigger", "positional"}
    for seed in (3, 4):
        rng = SplitMix64(seed)
        orders = [sample_uniform(g, rng) for _ in range(trials)]
        for s in strategies:
            want = sum(play(s, w).stopped_value_is_max for w in orders)
            got = simulate(s, g, trials=trials, seed=seed)
            assert got.wins == want, (name, seed, s.describe())


def differential_strategies(cls, n, tree, g):
    """sweep_strategies, and trigger sets drawn at random with and without
    null, and the completions of strike:{1} and strike:{12}."""
    base = frozenset(oracles.random_eligible_antichain(tree, SplitMix64(n + 50)))
    out = sweep_strategies(cls, n, tree) + [
        Strategy(kind="trigger", members=base, rank=n),
        Strategy(kind="trigger", members=base | {()}, rank=n),
        parse_strategy("trigger:{null,1,21}" if n > 1 else "trigger:{null,1}", cls, n),
    ]
    return out + [Strategy(kind="strike", members=completion(bare, g).members, rank=n)
                  for bare in ([(1,)], [(1, 2)]) if len(bare[0]) <= n]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_table_scorer_matches_the_prefix_walk_and_play(name):
    # the walk table's backward pass against the prefix walk over first
    # hits at ranks 1-8, and against play over every order (to rank 7 for
    # the unrestricted class, whose 40,320 orders at rank 8 are slow to play)
    cls = CLASSES[name]
    for n in range(1, 9):
        tree, g = build(cls, n), game(cls, n)
        orders = list(enumerate_class(cls, n)) if name != "none" or n < 8 else None
        strategies = differential_strategies(cls, n, tree, g)
        kinds = {s.kind for s in strategies}
        assert kinds >= {"strike", "trigger", "positional"} | (
            {"threshold"} if name in ("321", "312") else set())
        for s in strategies:
            got, where = exact_success(s, g), (name, n, s.describe())
            assert (got.wins, got.total) == oracles.score_by_first_hits(s, g), where
            if orders is not None:
                want = sum(play(s, w).stopped_value_is_max for w in orders)
                assert (got.wins, got.total) == (want, len(orders)), where


def test_incomplete_strike_sets_refused_at_the_first_uncovered_leaf(capsys):
    # exact_success and simulate name the leaf the prefix walk names, in
    # depth-first order; solve --strategy and simulate complete a bare set
    # first, so they score the completion instead
    from beststop.cli import main

    named = set()
    for name in sorted(CLASSES):
        cls = CLASSES[name]
        for n in range(2, 8):
            tree, g = build(cls, n), game(cls, n)
            rng = SplitMix64(n)
            for members in ({(2, 1)}, {(1, 2)}, oracles.random_eligible_antichain(tree, rng)):
                s = Strategy(kind="strike", members=frozenset(members), rank=n)
                try:
                    oracles.score_by_first_hits(s, g)
                    continue
                except IncompleteStrategyError as e:
                    want = str(e)
                with pytest.raises(IncompleteStrategyError) as exact:
                    exact_success(s, g)
                with pytest.raises(IncompleteStrategyError) as sim:
                    simulate(s, g, trials=5)
                assert str(exact.value) == str(sim.value) == want, (name, n)
                named.add(want)
                if not members:
                    continue  # a descriptor names at least one member
                full = Strategy(kind="strike", members=completion(members, g).members, rank=n)
                wins, total = oracles.score_by_first_hits(full, g)
                descr = "strike:" + members_str(member_names(members))
                head = ["--class", name, "--n", str(n), "--strategy", descr]
                assert main(["solve", *head]) == 0
                assert f"value = {Tally(wins, total)} " in capsys.readouterr().out
                assert main(["simulate", *head, "--trials", "20"]) == 0
                assert capsys.readouterr().out.startswith(f"strategy {full.describe()} on ")
    assert len(named) > 20
    # leaves named before the table scorer, by the prefix walk
    for name, n, leaf in (("321", 4, "3412"), ("231", 4, "1432"), ("none", 4, "3421"),
                          ("312", 5, "45321"), ("123", 3, "231"), ("213", 6, "564321")):
        s = Strategy(kind="strike", members=frozenset({(2, 1)}), rank=n)
        with pytest.raises(IncompleteStrategyError,
                           match=f"^strike set never fired on {leaf}; the set does not cover it$"):
            exact_success(s, game(name, n))


def test_trigger_accept_checked_before_arming():
    # once armed, later matches in the member set are irrelevant
    s = Strategy(kind="trigger", members=frozenset({(1,), (1, 2)}))
    trace = play(s, (1, 2, 3))
    assert trace.stop_position == 2
    assert [d.action for d in trace.decisions] == ["pass", "arm", "accept"]


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_threshold_matches_optimum_321(mode):
    # the paper's main theorem: the threshold rule is optimal
    optimize = optimal_strike_set if mode == "strike" else optimal_trigger_set
    for n in range(2, 12):
        g = game(AV321, n)
        got = exact_success(threshold_strategy(mode, "321", n), g)
        assert cmp_as_rational(got, optimize(g).value) == 0, (mode, n)
        if n == 10:
            assert (got.wins, got.total) == (8833, 16796)


@pytest.mark.parametrize("mode, wins", [("strike", 108613), ("trigger", 108610)])
def test_threshold_scored_at_rank_12(mode, wins):
    # the walk table holds a few nodes per state, so the rank-12 games of
    # 321 and 312 (208,012 orders each) score in milliseconds
    optimize = optimal_strike_set if mode == "strike" else optimal_trigger_set
    for cls in (AV321, AV312):
        g = game(cls, 12)
        got, best = exact_success(threshold_strategy(mode, cls, 12), g), optimize(g).value
        assert (got.wins, got.total) == (best.wins, best.total) == (wins, 208012), cls.name


def test_table_counts_past_the_word_limit():
    # the table keeps raw member totals, so its backward pass counts past
    # 2**64 (catalan(40) > 2**64); only turning a node into walk_node
    # fields, as simulate does, meets the limit
    s, g = threshold_strategy("strike", "321", 40), game("321", 40)
    table, wins = beststop.strategy._draw_table(s, g)
    assert g.states[0][0][0] == catalan(40) > 2**64
    assert Tally(wins[0], catalan(40)) == continuation_triangle("strike", 40).value(40, 1)
    with pytest.raises(LimitError):
        walk_node(*table[0])


def test_saturated_count_is_free_sites_less_one_321():
    # the count a threshold reads off a prefix's label
    for k in range(1, 10):
        for p in enumerate_class(AV321, k):
            assert oracles.value_saturated_count(p) == k - _label(p, AV321.forbidden).bit_count(), p


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_threshold_transports_to_312(mode):
    # on every 312 prefix up to rank 10, the label rule decides as the
    # saturated count of the prefix's West partner in Av(321) does; and the
    # rule is optimal on the 312 game too
    moved = {p: oracles.value_saturated_count(q) for p, q in oracles.west_transport(10).items()}
    labels = {p: _label(p, AV312.forbidden) for p in moved}
    for n in range(1, 11):
        s = threshold_strategy(mode, "312", n)
        for p, count in moved.items():
            k = len(p)
            if not 1 <= k <= n:
                continue
            bound = s.sigma.get(n - k)
            eligible = is_eligible(p)
            want = bound is not None and (mode == "trigger" or eligible) and count >= bound
            assert beststop.strategy._fires(s, n, k, labels[p], eligible, None) == want, (n, p)
    optimize = optimal_strike_set if mode == "strike" else optimal_trigger_set
    for n in range(2, 12):
        g = game(AV312, n)
        got = exact_success(threshold_strategy(mode, "312", n), g)
        assert cmp_as_rational(got, optimize(g).value) == 0, (mode, n)
        if n == 10:
            assert (got.wins, got.total) == (8833, 16796)


def test_direct_statistic_eventually_suboptimal():
    # reading the saturated count off the raw 312-avoiding prefix, rather
    # than off its West partner, agrees with the optimum through rank 6 and
    # then falls behind
    transport = oracles.west_transport(7)
    for n in range(2, 8):
        orders = oracles.members("312", n)
        sigma = threshold_strategy("strike", "312", n).sigma
        direct = oracles.threshold_wins(orders, "strike", sigma, oracles.value_saturated_count)
        moved = oracles.threshold_wins(orders, "strike", sigma,
                                       lambda p: oracles.value_saturated_count(transport[p]))
        got = exact_success(threshold_strategy("strike", "312", n), game("312", n))
        assert (got.wins, got.total) == (moved, len(orders)), n
        if n < 7:
            assert direct == moved, n
    assert (direct, len(orders)) == (224, 429)
    assert (got.wins, got.total) == (229, 429)


def test_strategy_validation():
    with pytest.raises(InvalidInputError):
        Strategy(kind="bogus")
    with pytest.raises(InvalidInputError):
        Strategy(kind="strike")
    with pytest.raises(InvalidInputError):
        Strategy(kind="positional", position=-1)
    with pytest.raises(InvalidInputError):
        Strategy(kind="threshold", mode="strike")
    with pytest.raises(InvalidInputError):
        Strategy(kind="threshold", mode="both", sigma=None)


def test_rank_mismatch():
    s = Strategy(kind="positional", position=1, rank=4)
    with pytest.raises(InvalidInputError):
        play(s, (2, 1, 3))
    with pytest.raises(InvalidInputError):
        exact_success(s, game("231", 5))
    with pytest.raises(InvalidInputError):
        play(s, ())
    # a threshold scored on another class than its own
    for own, other in (("321", "312"), ("312", "321")):
        s = threshold_strategy("strike", own, 7)
        with pytest.raises(InvalidInputError, match=f"built for class {own}, not class {other}"):
            exact_success(s, game(other, 7))
        with pytest.raises(InvalidInputError, match=f"built for class {own}, not class {other}"):
            simulate(s, game(other, 7), trials=10)


def test_threshold_depth_errors():
    shallow = optimal_boundary(continuation_triangle("strike", 6))
    unranked = Strategy(kind="threshold", mode="strike", sigma=shallow, pattern_class=AV321)
    with pytest.raises(DepthError):
        play(unranked, (1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(InvalidInputError):
        threshold_strategy("strike", "231", 5)
    with pytest.raises(InvalidInputError):
        threshold_strategy("both", "321", 5)


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_threshold_table_as_deep_as_the_rank(mode):
    # sigma(n) is not computed at depth n; no prefix of a rank-n order needs it
    sigma = optimal_boundary(continuation_triangle(mode, 5))
    exact = Strategy(kind="threshold", mode=mode, sigma=sigma, pattern_class=AV321, rank=5)
    deep = threshold_strategy(mode, "321", 5)
    assert deep.sigma.depth == 60
    for pi in enumerate_class(pattern_class("321"), 5):
        assert play(exact, pi) == play(deep, pi), pi
    g = game("321", 5)
    assert exact_success(exact, g) == exact_success(deep, g)
    trace = play(threshold_strategy(mode, "321", 60), tuple(range(1, 61)))
    assert trace.decisions[0].action == "pass"


def test_transport_rejects_foreign_prefix():
    s = threshold_strategy("strike", "312", 4)
    with pytest.raises(InvalidInputError):
        play(s, (3, 1, 2, 4))  # contains the forbidden pattern, outside the class


def test_parse_strategy_forms():
    cl = pattern_class("none")
    s = parse_strategy("strike:{12,213,3124,3214}", cl, 4)
    assert s.kind == "strike"
    assert s.members == {(1, 2), (2, 1, 3), (3, 1, 2, 4), (3, 2, 1, 4)}
    assert s.describe() == "strike:{12,213,3124,3214}"

    s = parse_strategy("trigger:{null,1,21}", "231", 4)
    assert s.members == {(), (1,), (2, 1)}
    assert s.describe() == "trigger:{null,1,21}"

    s = parse_strategy("trigger:{size=2}", "231", 5)
    assert s.kind == "positional" and s.position == 2

    s = parse_strategy("positional:3", "123", 5)
    assert s.kind == "positional" and s.position == 3

    s = parse_strategy("threshold:trigger", "321", 6)
    assert s.kind == "threshold" and s.mode == "trigger"


@pytest.mark.parametrize("kind", ["strike", "trigger"])
def test_one_member_rank_10_set_reads_back(kind):
    # written with commas and no ";": the lone member is not split at them
    for member in [tuple(range(1, 11)), (2, 1, 3, 4, 5, 6, 7, 8, 10, 9)]:
        s = Strategy(kind=kind, members=frozenset({member}), rank=10)
        text = s.describe()
        assert text == f"{kind}:{{{','.join(map(str, member))}}}"
        back = parse_strategy(text, "321", 10)
        assert (back.kind, back.members) == (kind, {member})
        assert back.describe() == text


def test_parse_strategy_errors():
    with pytest.raises(InvalidInputError):
        parse_strategy("nonsense", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("accept:{1}", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("strike:{null}", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("strike:{}", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("strike:12", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("strike:{231}", "231", 4)  # not in the class
    with pytest.raises(InvalidInputError):
        parse_strategy("strike:{12345}", "231", 4)  # longer than the rank
    with pytest.raises(InvalidInputError):
        parse_strategy("trigger:{size=x}", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("trigger:{size=9}", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("positional:x", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("positional:7", "231", 4)
    with pytest.raises(InvalidInputError):
        parse_strategy("threshold:both", "321", 4)


def test_sample_uniform_support_and_spread():
    rng, g = SplitMix64(7), game("321", 5)
    members = set(oracles.members("321", 5))
    counts: dict[tuple, int] = {}
    for _ in range(4200):
        w = sample_uniform(g, rng)
        assert w in members
        counts[w] = counts.get(w, 0) + 1
    assert set(counts) == members  # every member drawn
    assert all(55 <= c <= 160 for c in counts.values())
    # the stream of draws is part of the seeded contract
    rng = SplitMix64(7)
    g = game("321", 6)
    draws = [sample_uniform(g, rng) for _ in range(5)]
    assert draws == [(3, 4, 1, 6, 2, 5), (1, 3, 5, 6, 2, 4), (3, 6, 1, 2, 4, 5),
                     (1, 4, 2, 6, 3, 5), (1, 6, 2, 3, 4, 5)]


def test_simulate_caps_draws_before_any_work(monkeypatch):
    # simulate refuses trials times rank past DRAW_CAP before it builds its
    # walk table; the cap itself is admitted
    def refuse(*args):
        raise AssertionError("built the walk table")

    monkeypatch.setattr(beststop.strategy, "_draw_table", refuse)
    for s, g in ((threshold_strategy("strike", "321", 9), game("321", 9)),
                 (Strategy(kind="trigger", members=frozenset({()})), game("231", 12))):
        with pytest.raises(LimitError, match="over the draw cap"):
            simulate(s, g, trials=DRAW_CAP // g.rank + 1)
        beststop.strategy._check_trials(DRAW_CAP // g.rank, g.rank)


def test_set_members_past_a_byte_never_fire():
    # the walk table compares a set as bytes: a member with an entry no
    # byte holds is no prefix of the game and never fires, as in play
    g = game("321", 5)
    for kind, base in (("strike", {(1,)}), ("trigger", {(), (2, 1)})):
        plain = Strategy(kind=kind, members=frozenset(base))
        wide = Strategy(kind=kind, members=frozenset(base | {(300, 1), (1, 256, 2)}))
        assert exact_success(wide, g) == exact_success(plain, g), kind
        assert simulate(wide, g, 200, seed=1).wins == simulate(plain, g, 200, seed=1).wins
        assert [play(wide, pi) for pi in enumerate_class(AV321, 5)] == \
            [play(plain, pi) for pi in enumerate_class(AV321, 5)]


def test_simulate_deterministic():
    s = Strategy(kind="positional", position=0)
    g = game("231", 8)
    a = simulate(s, g, trials=2000, seed=42)
    b = simulate(s, g, trials=2000, seed=42)
    assert (a.wins, a.trials, a.seed) == (b.wins, b.trials, b.seed)
    assert a.estimate == Fraction(a.wins, a.trials)
    assert a.std_error == pytest.approx(
        ((a.wins / a.trials) * (1 - a.wins / a.trials) / a.trials) ** 0.5
    )
    exact = Fraction(catalan(7), catalan(8))
    assert abs(a.estimate - exact) < 4 * max(a.std_error, 1e-9)
    with pytest.raises(InvalidInputError):
        simulate(s, g, trials=0)
    # seeded runs reproduce these win counts exactly
    assert a.wins == 570
    runs = [
        (threshold_strategy("strike", "321", 7), "321", 7, 3000, 5, 1595),
        (threshold_strategy("trigger", "312", 7), "312", 7, 3000, 6, 1612),
        (parse_strategy("strike:{1}", "231", 6), "231", 6, 1000, 9, 306),
        # simulate --class none --n 8 --strategy 'strike:{12}': the set
        # completed to every order it does not cover
        (Strategy(kind="strike", members=completion({(1, 2)}, game("none", 8)).members, rank=8),
         "none", 8, 1000, 3, 180),
        # at the benchmark's rank
        (threshold_strategy("strike", "321", 10), "321", 10, 2000, 1, 1082),
        (threshold_strategy("trigger", "312", 10), "312", 10, 2000, 2, 1035),
        # the benchmark's trial counts, past many blocks of words
        (threshold_strategy("strike", "321", 10), "321", 10, 50000, 1, 26346),
        (threshold_strategy("trigger", "312", 10), "312", 10, 20000, 2, 10645),
        # a negative seed is taken mod 2**64, as SplitMix64 takes it
        (threshold_strategy("strike", "321", 10), "321", 10, 70000, -1, 36693),
        (threshold_strategy("strike", "321", 10), "321", 10, 70000, 2**64 - 1, 36693),
    ]
    for s, cls, n, trials, seed, wins in runs:
        assert simulate(s, game(cls, n), trials=trials, seed=seed).wins == wins, (cls, seed)


def test_describe_orders_null_first():
    s = Strategy(kind="trigger", members=frozenset({(2, 1), (), (1,)}))
    assert s.describe() == "trigger:{null,1,21}"


PREFIXES = st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(tuple))


@given(st.sets(PREFIXES, max_size=40), st.booleans())
def test_member_names_match_perm_to_str(members, null):
    # tuples and bytes (one byte an entry, as OptimalResult.stops gives
    # them) are named alike, in (size, prefix) order
    members |= {()} if null else set()
    ordered = sorted(members, key=lambda p: (len(p), p))
    want = ["null" if p == () else perm_to_str(p) for p in ordered]
    assert member_names(members) == want
    assert member_names(bytes(p) for p in members) == want
    # members are split by ";" exactly when one is written with commas
    sep = ";" if any("," in name for name in want) else ","
    assert members_str(want) == "{" + sep.join(want) + "}"
    assert (sep == ";") == any(len(p) >= 10 for p in members)
