"""End-to-end checks of the package's headline results, one test per
criterion, each with its own wall-clock budget.  Run with -v for a
pass/fail line per criterion."""
from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from beststop import (
    BestStopError,
    SplitMix64,
    Strategy,
    Tally,
    ballot,
    catalan,
    cmp_as_rational,
    completion,
    continuation_triangle,
    convert_132_to_231,
    convert_231_to_132,
    decimal_str,
    enumerate_class,
    exact_success,
    fit_shifted_ballot,
    game,
    limit_of_combination,
    optimal_boundary,
    optimal_strike_set,
    optimal_success_123,
    optimal_success_213,
    optimal_trigger_set,
    pattern_class,
    perm_from_str,
    play,
    positional_success_321,
    shifted_ballot,
    simulate,
    slide_max,
    successors,
    threshold_strategy,
    verify_tree_isomorphism,
    west_correspondence,
)
from test_bijections import WEST4
from test_closedform import GOLDEN_STRIKE_ROWS


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


# win counts over the 321-avoiding prefix trees at ranks 4 and 5, keyed by
# prefix literal, frozen from independent brute-force enumeration
FIGURE_321_RANK4 = {
    "1": (1, 14), "12": (3, 9), "21": (0, 5),
    "123": (3, 4), "132": (0, 2), "213": (2, 3), "231": (0, 3), "312": (0, 2),
    "1234": (1, 1), "1243": (0, 1), "1324": (1, 1), "1342": (0, 1),
    "1423": (0, 1), "2134": (1, 1), "2143": (0, 1), "2314": (1, 1),
    "2341": (0, 1), "2413": (0, 1), "3124": (1, 1), "3142": (0, 1),
    "3412": (0, 1), "4123": (0, 1),
}
FIGURE_321_RANK5 = {
    "1": (1, 42), "12": (4, 28), "21": (0, 14),
    "123": (6, 14), "132": (0, 5), "213": (3, 9), "231": (0, 9), "312": (0, 5),
    "1234": (4, 5), "1243": (0, 2), "1324": (2, 3), "1342": (0, 3),
    "1423": (0, 2), "2134": (3, 4), "2143": (0, 2), "2314": (3, 4),
    "2341": (0, 4), "2413": (0, 2), "3124": (2, 3), "3142": (0, 3),
    "3412": (0, 3), "4123": (0, 2),
}


def test_criterion_01_unrestricted_rank4(tree_for):
    with budget(1.0):
        tree = tree_for("none", 4)
        g = game("none", 4)
        res = optimal_strike_set(g)
        assert (res.value.wins, res.value.total) == (11, 24)
        core = {(1, 2), (2, 1, 3), (3, 1, 2, 4), (3, 2, 1, 4)}
        assert res.strike_set.members == completion(core, g).members
        # exhaustive sweep over all complete antichains confirms maximality
        best = max(
            exact_success(Strategy(kind="strike", members=a, rank=4), g).wins
            for a in oracles.complete_antichains(tree)
        )
        assert best == 11


def test_criterion_02_av231_catalan_ratio(tree_for):
    with budget(30.0):
        for n in range(2, 10):
            tree = tree_for("231", n)
            want = Tally(catalan(n - 1), catalan(n))
            g = game("231", n)
            got = optimal_strike_set(g).value
            assert (got.wins, got.total) == (want.wins, want.total), n
            rng = SplitMix64(2026)
            for _ in range(100):
                antichain = oracles.random_eligible_antichain(tree, rng)
                full = completion(antichain, g).members
                v = exact_success(Strategy(kind="strike", members=full, rank=n), g)
                assert (v.wins, v.total) == (want.wins, want.total), (n, antichain)
            members = list(enumerate_class(pattern_class("231"), n))
            for k in range(n):
                s = Strategy(kind="positional", position=k)
                wins = sum(play(s, w).stopped_value_is_max for w in members)
                assert (wins, len(members)) == (want.wins, want.total), (n, k)


def test_criterion_03_av321_figures(tree_for):
    with budget(5.0):
        for n, figure in ((4, FIGURE_321_RANK4), (5, FIGURE_321_RANK5)):
            tree = tree_for("321", n)
            shown = {p for p in figure}
            in_tree = {
                node.prefix for node in tree.nodes() if len(node.prefix) <= 4
            }
            assert {perm_from_str(p) for p in shown} == in_tree
            for literal, (wins, total) in figure.items():
                node = tree.node(perm_from_str(literal))
                assert (node.strike.wins, node.strike.total) == (wins, total), (
                    n,
                    literal,
                )


def test_criterion_04_triangle_rows_and_base_diagonals():
    with budget(60.0):
        t = continuation_triangle("strike", 16)
        for n, row in GOLDEN_STRIKE_ROWS.items():
            assert t.row(n) == row, n
        for n, k in ((2, 1), (6, 4), (12, 9)):
            assert t.is_optimal(n, k), (n, k)
            for smaller in range(1, k):
                assert not t.is_optimal(n, smaller), (n, smaller)
        band = continuation_triangle("strike", 2000, max_diag=2)
        for n in range(2, 2001):
            assert band.entry(n, n - 1) == 1, n
            if n >= 3:
                assert band.entry(n, n - 2) == 2 * n - 3, n


def test_criterion_05_threshold_equals_optimum():
    with budget(60.0):
        t = continuation_triangle("strike", 9)
        for n in range(2, 10):
            s = threshold_strategy("strike", "321", n)
            g = game("321", n)
            played = exact_success(s, g)
            assert (played.wins, played.total) == (t.entry(n, 1), ballot(n, 1)), n
            best = optimal_strike_set(g).value
            assert (best.wins, best.total) == (played.wins, played.total), n


def test_criterion_06_sigma_tables():
    with budget(30.0):
        strike = optimal_boundary(continuation_triangle("strike", 60))
        assert tuple(strike.get(i) for i in range(5)) == (1, 1, 4, 9, 16)
        for i in range(2, 7):
            assert strike.get(i) == i * i, i
        trigger = optimal_boundary(continuation_triangle("trigger", 60))
        assert trigger.get(0) is None
        assert trigger.get(1) == 1
        assert tuple(trigger.get(i) for i in range(2, 8)) == (1, 3, 8, 15, 25, 36)


def test_criterion_07_shifted_ballot_fit():
    with budget(10.0):
        t = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
        fit = fit_shifted_ballot(
            t, diagonal=5, shifts=range(1, 9), fit_start=11, verify_stop=30
        )
        want = {1: 4, 2: -9, 3: 0, 4: 2, 5: 105, 6: -206, 7: 95, 8: -5}
        assert dict(fit.coefficients) == want
        for n in range(11, 31):
            for k in range(1, n - 4):
                total = sum(c * shifted_ballot(i, n, k) for i, c in want.items())
                assert total == t.entry(n, k), (n, k)
        assert limit_of_combination(fit.coefficients) == Fraction(32983, 65536)


def test_criterion_08_trigger_bound():
    with budget(30.0):
        try:
            t = continuation_triangle("trigger", 40, frozen_rules=(1, 1, 3, 8))
            fit = fit_shifted_ballot(
                t, diagonal=6, shifts=range(1, 9), fit_start=11, verify_stop=40
            )
        except BestStopError as e:
            pytest.fail(f"no consistent truncation found for the trigger bound: {e}")
        assert limit_of_combination(fit.coefficients) == Fraction(8239, 16384)
        # record the successful truncation's shape
        assert dict(fit.coefficients) == {
            1: 4, 2: -9, 3: 0, 4: -1, 5: 126, 6: -251, 7: 125, 8: -8,
        }


def test_criterion_09_positional_av321():
    with budget(60.0):
        for n in range(5, 11):
            want_wins = 3 * catalan(n - 1) - 4 * catalan(n - 2) - catalan(n - 3)
            s = Strategy(kind="positional", position=n - 3)
            got = exact_success(s, game("321", n))
            assert (got.wins, got.total) == (want_wins, catalan(n)), n
            formula = positional_success_321(n)
            assert (formula.wins, formula.total) == (want_wins, catalan(n)), n
        assert decimal_str(Fraction(31, 64)) == "0.484375"


def test_criterion_10_av123_av213_closed_forms():
    with budget(30.0):
        for n in range(2, 9):
            want123 = Tally(ballot(n, 2), catalan(n))
            got123 = optimal_strike_set(game("123", n)).value
            assert cmp_as_rational(got123, want123) == 0, n
            descr, formula = optimal_success_123(n)
            assert (formula.wins, formula.total) == (want123.wins, want123.total)

            want213 = Tally(catalan(n - 1), catalan(n))
            got213 = optimal_strike_set(game("213", n)).value
            assert cmp_as_rational(got213, want213) == 0, n
            descr, formula = optimal_success_213(n)
            assert descr == "strike:{1}"
            assert (formula.wins, formula.total) == (want213.wins, want213.total)
        assert (
            optimal_strike_set(game("123", 4)).value.wins,
            optimal_strike_set(game("123", 4)).value.total,
        ) == (9, 14)
        assert decimal_str(Fraction(3, 4)) == "0.75"
        assert decimal_str(Fraction(1, 4)) == "0.25"


def test_criterion_11_bijections(tree_for):
    with budget(60.0):
        for n in range(2, 9):
            assert verify_tree_isomorphism("231", "132", n).ok, n
            assert verify_tree_isomorphism("321", "312", n).ok, n
        table = west_correspondence(game("321", 4), game("312", 4))
        for a, b in WEST4.items():
            assert table[a] == b, a
        # sliding the maximum transfers winnability: for every eligible
        # prefix, it bijects that prefix's winners onto its successors' pool
        for n in range(2, 9):
            members = oracles.members("231", n)
            tree = tree_for("231", n)
            g = game("231", n)
            for node in tree.nodes():
                if not node.eligible:
                    continue
                winners = oracles.winnable(node.prefix, members)
                if not node.children:
                    assert successors(g, node.prefix) == ()
                    assert winners == [node.prefix]
                    continue
                images = [slide_max(w) for w in winners]
                assert len(set(images)) == len(images)
                pool = [
                    w
                    for q in successors(g, node.prefix)
                    for w in oracles.winnable(q, members)
                ]
                assert sorted(images) == sorted(pool), node.prefix


def test_criterion_12_simulation_soundness():
    with budget(30.0):
        cases = [
            (threshold_strategy("strike", "321", 5), "321", 5, Fraction(23, 42)),
            (Strategy(kind="positional", position=0), "231", 8, Fraction(429, 1430)),
        ]
        for s, cls, n, exact in cases:
            g = game(cls, n)
            for seed in (1, 7, 2026):
                rep = simulate(s, g, trials=100_000, seed=seed)
                gap = abs(float(rep.estimate) - float(exact))
                assert gap < 4 * rep.std_error, (cls, seed, gap, rep.std_error)
