from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beststop import (
    DepthError,
    FitError,
    InconsistencyError,
    InvalidInputError,
    LimitError,
    Tally,
    ballot,
    catalan,
    combination_value,
    continuation_triangle,
    fit_shifted_ballot,
    limit_of_combination,
    optimal_boundary,
    optimal_success_123,
    optimal_success_213,
    optimal_success_231,
    positional_success_321,
    sigma_table,
    strike_numerator,
    strike_prob_321,
    trigger_numerator,
    trigger_prob_321,
)
from beststop.cache import load_triangle, store_triangle
from beststop.cli import _solve_formula, main
from beststop import closedform
from beststop.closedform import _numerator_diagonals, _row_numerators, _sweep, sweep

import oracles

# continuation numerators below increasing prefixes, rows 2..16
GOLDEN_STRIKE_ROWS = {
    2: (1,),
    3: (3, 1),
    4: (8, 5, 1),
    5: (23, 15, 7, 1),
    6: (71, 48, 25, 9, 1),
    7: (229, 158, 87, 39, 11, 1),
    8: (759, 530, 301, 143, 56, 13, 1),
    9: (2568, 1809, 1050, 520, 219, 76, 15, 1),
    10: (8833, 6265, 3697, 1888, 838, 318, 99, 17, 1),
    11: (30797, 21964, 13131, 6866, 3169, 1281, 443, 125, 19, 1),
    12: (108613, 77816, 47019, 25055, 11924, 5058, 1889, 608, 154, 21, 1),
    13: (386804, 278191, 169578, 91762, 44743, 19688, 7764, 2706, 817, 186, 23, 1),
    14: (1389109, 1002305, 615501, 337310, 167732, 75970, 31227, 11539, 3775, 1069, 221, 25, 1),
    15: (5024945, 3635836, 2246727, 1244422, 628921, 291611, 123879, 47909, 16682, 5143, 1368, 259, 27, 1),
    16: (18292738, 13267793, 8242848, 4607012, 2360285, 1115863, 486942, 195331, 71452, 23543, 6861, 1718, 300, 29, 1),
}


def test_numerators_match_tree_tallies(tree_for):
    for n in range(2, 8):
        tree = tree_for("321", n)
        for k in range(1, n + 1):
            prefix = tuple(range(1, k + 1))
            node = tree.node(prefix)
            assert strike_numerator(n, k) == node.strike.wins, (n, k)
            assert trigger_numerator(n, k) == node.trigger.wins, (n, k)
            assert node.strike.total == ballot(n, k)


def test_recursive_probs_match_tree_everywhere(tree_for):
    for n in range(2, 8):
        tree = tree_for("321", n)
        for node in tree.nodes():
            assert strike_prob_321(node.prefix, n) == node.strike, (n, node.prefix)
            assert trigger_prob_321(node.prefix, n) == node.trigger, (n, node.prefix)
        assert trigger_prob_321(None, n) == tree.null.trigger


def test_recursive_probs_figure_values():
    assert str(strike_prob_321((2, 3, 1, 4), 5)) == "3/4"
    assert str(strike_prob_321((1, 3, 2, 4), 5)) == "2/3"
    assert str(strike_prob_321((2, 3, 1), 5)) == "0/9"
    assert str(trigger_prob_321((2, 1, 3), 5)) == "5/9"
    assert str(trigger_prob_321(None, 4)) == "1/14"


def test_strike_triangle_golden_rows():
    t = continuation_triangle("strike", 16)
    for n, row in GOLDEN_STRIKE_ROWS.items():
        assert t.row(n) == row, n


def test_strike_boundary_positions():
    t = continuation_triangle("strike", 16)

    def leftmost_optimal(n):
        return next(k for k in range(1, n + 1) if t.is_optimal(n, k))

    # the first optimal stop on diagonals 1, 2, 3
    for n, k in [(2, 1), (6, 4), (12, 9)]:
        assert t.is_optimal(n, k)
        assert leftmost_optimal(n) == k
        assert not t.is_optimal(n + 1, k)  # one row down, same column: too early
    want_leftmost = (1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 9, 10, 11, 12, 13)
    assert tuple(leftmost_optimal(n) for n in range(2, 17)) == want_leftmost


def test_optimal_entries_form_suffix_intervals():
    t = continuation_triangle("strike", 25)
    for n in range(2, 26):
        flags = [t.is_optimal(n, k) for k in range(1, n)]
        # once optimal, optimal for the rest of the row
        first = flags.index(True) if True in flags else len(flags)
        assert all(flags[first:]), n


def test_optimality_persists_down_diagonals():
    for mode in ("strike", "trigger"):
        t = continuation_triangle(mode, 30)
        for i in range(1, 29):
            hit = False
            for n in range(i + 1, 31):
                k = n - i
                if hit and not (mode == "trigger" and k == n):
                    assert t.is_optimal(n, k), (mode, n, k)
                if t.is_optimal(n, k):
                    hit = True


def test_base_diagonals_band_mode():
    t = continuation_triangle("strike", 500, max_diag=2)
    for n in range(2, 501):
        assert t.entry(n, n - 1) == 1
        if n >= 3:
            assert t.entry(n, n - 2) == 2 * n - 3
    with pytest.raises(DepthError):
        t.entry(500, 1)
    with pytest.raises(DepthError):
        t.row(500)


def test_entry_edges():
    t = continuation_triangle("strike", 10)
    assert t.entry(5, 5) == 0
    assert t.has(5, 5)
    assert not t.has(11, 1)
    assert t.entry(1, 1) == 0  # the one-candidate game has no continuation
    for n, k in [(11, 1), (5, 0), (5, 6), (0, 1)]:
        with pytest.raises(InvalidInputError):
            t.entry(n, k)
    with pytest.raises(InvalidInputError):
        t.row(17)
    with pytest.raises(InvalidInputError):
        continuation_triangle("strike", 1)
    with pytest.raises(InvalidInputError):
        continuation_triangle("both", 10)
    with pytest.raises(InvalidInputError):
        continuation_triangle("strike", 10, max_diag=0)
    # over the entry cap, refused before the sweep: a full 1,415-row triangle
    # (1,000,405 entries) and a 50,012-row band of 20 diagonals (1,000,030)
    for max_n, max_diag in ((1415, None), (50_012, 20)):
        with pytest.raises(LimitError):
            continuation_triangle("trigger", max_n, max_diag=max_diag)


def test_entries_built_on_first_read():
    # the readers index the per-diagonal lists; the (n, k) dict is made
    # only when something asks for it
    t = continuation_triangle("trigger", 30)
    optimal_boundary(t)
    t.row(30), t.value(30, 1), t.has(30, 2), t.is_optimal(30, 1)
    assert "entries" not in vars(t)
    assert t.entries[30, 29] == t.entry(30, 29) == t.diags[0][28]
    assert "entries" in vars(t)


def test_value_is_pointwise_max():
    t = continuation_triangle("strike", 12)
    assert t.value(5, 1) == Tally(23, 42)
    # at (12, 9) stopping strictly beats continuing; at (2, 1) it ties
    assert t.entry(12, 9) == 154 and t.stop_numerator(12, 9) == 165
    assert t.value(12, 9) == Tally(165, ballot(12, 9))
    assert t.entry(2, 1) == t.stop_numerator(2, 1) == 1


def test_sigma_tables_depth_60():
    strike = optimal_boundary(continuation_triangle("strike", 60))
    for i in range(0, 8):
        assert strike.get(i) == (1 if i <= 1 else i * i), i
    assert strike.get(8) is None  # needs depth 72, unresolved at 60
    trigger = optimal_boundary(continuation_triangle("trigger", 60))
    assert trigger.get(0) is None  # a trigger at the last prefix never wins
    want = {1: 1, 2: 1, 3: 3, 4: 8, 5: 15, 6: 25, 7: 36}
    for i, v in want.items():
        assert trigger.get(i) == v, i


SIGMA_HEADS = {
    "strike": (1, 1, 4, 9, 16, 25, 36, 49),
    "trigger": (None, 1, 1, 3, 8, 15, 25, 36),
}

# trigger sigma(8..24), as the 6,000-row band prints them; no closed form
TRIGGER_SIGMA_8_TO_24 = (49, 65, 82, 101, 122, 146, 171, 198, 227, 259, 292, 327, 364,
                         404, 445, 488, 534)

FROZEN_CASES = (None, (1, 4, 9), (None,), (None, 1, 3, 8), (1, 1), (2, None, 5, 1))


def test_sigma_tables_depth_600_and_a_6000_row_band():
    for mode, heads in SIGMA_HEADS.items():
        full = optimal_boundary(continuation_triangle(mode, 600))
        assert tuple(full.get(i) for i in range(8)) == heads, mode
        band = optimal_boundary(continuation_triangle(mode, 6000, max_diag=24))
        assert band.depth == 6000 and max(band.values) == 24
        # depth 600 resolves every diagonal up to 24 (a trigger at i = 0
        # never wins), so the two tables define the same sigma(i)
        assert all(full.get(i) is not None for i in range(1, 25)), mode
        assert [band.get(i) for i in range(25)] == [full.get(i) for i in range(25)], mode
        if mode == "strike":
            assert all(band.get(i) == i * i for i in range(2, 25))
        else:
            assert tuple(band.get(i) for i in range(8, 25)) == TRIGGER_SIGMA_8_TO_24


# trigger sigma(1..99), as the 10,000-row band of 99 diagonals gives them;
# no closed form
TRIGGER_SIGMA_1_TO_99 = (
    1, 1, 3, 8, 15, 25, 36, 49, 65, 82, 101, 122, 146, 171, 198, 227, 259, 292, 327, 364,
    404, 445, 488, 534, 581, 630, 681, 735, 790, 847, 906, 968, 1031, 1096, 1163, 1233,
    1304, 1377, 1452, 1530, 1609, 1690, 1773, 1859, 1946, 2035, 2126, 2220, 2315, 2412,
    2511, 2613, 2716, 2821, 2928, 3038, 3149, 3262, 3377, 3495, 3614, 3735, 3858, 3984,
    4111, 4240, 4371, 4505, 4640, 4777, 4917, 5058, 5201, 5346, 5494, 5643, 5794, 5947,
    6103, 6260, 6419, 6580, 6744, 6909, 7076, 7245, 7417, 7590, 7765, 7942, 8122, 8303,
    8486, 8671, 8859, 9048, 9239, 9432, 9628,
)


def test_sigma_tables_depth_99():
    # 99 diagonals are the most the triangle cap admits at 10,000 rows
    # (985,050 entries); sigma(99) settles by row 9,900 in either mode
    strike = sigma_table("strike", 10000, max_diag=99)
    assert [strike.get(i) for i in range(1, 100)] == [i * i for i in range(1, 100)]
    trigger = sigma_table("trigger", 10000, max_diag=99)
    assert tuple(trigger.get(i) for i in range(1, 100)) == TRIGGER_SIGMA_1_TO_99


def test_diagonal_numerators_match_point_formulas():
    # diagonals 1..200 of a 201-row triangle, each stepped from the one
    # before, and diagonals 1..60 on rows 150..259, a later row block seeded
    # by one comb per diagonal
    for mode, point in (("strike", strike_numerator), ("trigger", trigger_numerator)):
        for i, got in zip(range(1, 201), _numerator_diagonals(mode, 1, 202)):
            assert got == [point(k + i, k) for k in range(1, 202 - i)], (mode, i)
        for i, got in zip(range(1, 61), _numerator_diagonals(mode, 150, 260)):
            assert got == [point(n, n - i) for n in range(150, 260)], (mode, i)


def test_row_numerators_match_point_formulas():
    for mode, point in (("strike", strike_numerator), ("trigger", trigger_numerator)):
        for n in range(2, 120):
            for k in (1, 2, n // 2, n - 1):
                xs = _row_numerators(mode, n, k)
                assert [next(xs) for _ in range(k, n)] == [point(n, j) for j in range(k, n)], \
                    (mode, n, k)


def test_sweep_matches_comb_oracle():
    for mode in ("strike", "trigger"):
        for max_n in (2, 3, 5, 12, 80):
            for max_diag in (None, 1, 2, 7):
                for rules in FROZEN_CASES:
                    t = continuation_triangle(mode, max_n, frozen_rules=rules,
                                              max_diag=max_diag)
                    want = oracles.triangle_by_comb(mode, max_n, rules, max_diag)
                    assert t.entries == want, (mode, max_n, max_diag, rules)


def _boundary_by_is_optimal(t):
    return {
        i: next((k for k in range(1, t.max_n - i + 1) if t.is_optimal(k + i, k)), None)
        for i in range(t.diag_limit + 1)
    }


def test_optimal_boundary_matches_is_optimal_scan(tmp_path, monkeypatch):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))
    for mode in ("strike", "trigger"):
        for max_n, max_diag in ((2, None), (3, None), (12, None), (80, None),
                                (80, 1), (80, 2), (80, 7), (300, 12)):
            t = continuation_triangle(mode, max_n, max_diag=max_diag)
            want = _boundary_by_is_optimal(t)
            assert optimal_boundary(t).values == want, (mode, max_n, max_diag)
        # the record a cache file carries, read back with no sweep
        t = continuation_triangle(mode, 80)
        store_triangle(optimal_boundary(t))
        assert load_triangle(mode, 80).values == _boundary_by_is_optimal(t), mode


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_streamed_sigma_matches_the_triangle(mode):
    # the table read off the sweep a diagonal at a time, against the kept
    # triangle's record and a per-entry scan of it: every full triangle up
    # to 80 rows, and every band of the 30-row one
    for rows, max_diag in [(rows, None) for rows in range(2, 81)] + [
            (30, d) for d in range(1, 30)]:
        table = sigma_table(mode, rows, max_diag=max_diag)
        t = continuation_triangle(mode, rows, max_diag=max_diag)
        assert (table.mode, table.depth) == (mode, rows)
        assert table.values == optimal_boundary(t).values == _boundary_by_is_optimal(t), \
            (rows, max_diag)
    # bands swept in several row blocks: every band of 600 rows up to 40
    # diagonals (sigma(25..40) unresolved, so those run to the last row),
    # whose scan reads the 40-diagonal band, and two bands of 5,000 rows,
    # one settled early and one with sigma(71..80) unresolved
    scan = _boundary_by_is_optimal(continuation_triangle(mode, 600, max_diag=40))
    for d in range(1, 41):
        t = continuation_triangle(mode, 600, max_diag=d)
        assert sigma_table(mode, 600, max_diag=d).values == optimal_boundary(t).values \
            == {i: scan[i] for i in range(d + 1)}, d
    for d in (20, 80):
        t = continuation_triangle(mode, 5000, max_diag=d)
        assert sigma_table(mode, 5000, max_diag=d).values == optimal_boundary(t).values \
            == _boundary_by_is_optimal(t), d
    # a frozen sweep records no sigma
    assert [s for _, s in sweep(mode, 30, (1, None, 3))] == [None] * 30


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_row_blocks_carry_the_whole_sweep(mode):
    # a sweep split into row blocks, each carrying its diagonals' running
    # sums into the next, makes the same entries and first optimal columns
    # as one block from row 1 with nothing carried, frozen rules included
    for max_n, diag_cap, cuts in ((80, 7, (9, 10, 33, 70)), (80, 30, (32, 50)),
                                  (40, 1, (3, 4, 5, 40)), (61, 60, ())):
        for rules in (None, (1, 4, 9), (2, None, 5, 1), (0,)):
            whole = list(_sweep(mode, rules, diag_cap, 1, max_n + 1, [None] * diag_cap))
            sums, pieces, firsts = [None] * diag_cap, [[] for _ in whole], [None] * len(whole)
            bounds = (1, *cuts, max_n + 1)
            for r0, r1 in zip(bounds, bounds[1:]):
                for i, (below, s) in enumerate(_sweep(mode, rules, diag_cap, r0, r1, sums)):
                    pieces[i] += below
                    firsts[i] = s if firsts[i] is None else firsts[i]
            assert pieces == [below for below, _ in whole], (max_n, diag_cap, cuts, rules)
            assert firsts == [s for _, s in whole], (max_n, diag_cap, cuts, rules)


def test_band_sigma_stops_at_the_block_that_settles_it(monkeypatch):
    # sigma(20) settles at row 420 (strike, 400 + 20) and row 384 (trigger,
    # 364 + 20), so the 5,000-row band of 20 diagonals sweeps its first
    # 630 rows in four blocks (42, 84, 168 and 336 rows), not all 5,000:
    # 13,020 entries of the 104,790 a whole band makes, diagonal 0 included,
    # counted off each diagonal the sweep yields
    made = []

    def counted(*args):
        for below, s in inner(*args):
            made.append(len(below))
            yield below, s

    inner = closedform._sweep
    monkeypatch.setattr(closedform, "_sweep", counted)
    for mode, last in (("strike", 400), ("trigger", 364)):
        made.clear()
        table = sigma_table(mode, 5000, max_diag=20)
        assert table.values[20] == last and None not in list(table.values.values())[1:]
        assert sum(made) == 21 * 630 - 20 * 21 // 2, mode


@pytest.mark.parametrize("mode", ["strike", "trigger"])
def test_streamed_readers_match_the_triangle(mode, capsys):
    # `triangle --emit row` reads its row off the sweep's first n diagonals
    # and the 321 closed form reads entry (n, 1) off its last one; both
    # against the kept triangle, frozen and banded rows included
    t = continuation_triangle(mode, 80)
    frozen = continuation_triangle(mode, 80, frozen_rules=(1, None, 3), max_diag=60)
    for n in range(2, 81):
        assert main(["triangle", "--rows", "80", "--emit", "row", "--n", str(n),
                     "--mode", mode]) == 0
        assert capsys.readouterr().out == ",".join(map(str, t.row(n))) + "\n", n
        if n <= 61:
            assert main(["triangle", "--rows", "80", "--emit", "row", "--n", str(n),
                         "--frozen", "1,-,3", "--max-diag", "60", "--mode", mode]) == 0
            assert capsys.readouterr().out == ",".join(map(str, frozen.row(n))) + "\n", n
    if mode == "strike":
        for n in range(1, 81):
            assert _solve_formula("321", n, mode) == ("threshold:strike", t.value(n, 1)), n


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("strike", "trigger")),
    st.integers(2, 60),
    st.none() | st.lists(st.none() | st.integers(0, 12), max_size=6).map(tuple),
    st.none() | st.integers(1, 60),
)
def test_sweep_matches_comb_oracle_property(mode, max_n, rules, max_diag):
    t = continuation_triangle(mode, max_n, frozen_rules=rules, max_diag=max_diag)
    assert t.entries == oracles.triangle_by_comb(mode, max_n, rules, max_diag)
    if rules is None:
        assert optimal_boundary(t).values == _boundary_by_is_optimal(t)


def test_sigma_table_errors():
    table = optimal_boundary(continuation_triangle("strike", 20, max_diag=5))
    with pytest.raises(InvalidInputError):
        table.get(-1)
    with pytest.raises(DepthError):
        table.get(6)
    frozen = continuation_triangle("strike", 20, frozen_rules=(1, 4))
    with pytest.raises(InvalidInputError):
        optimal_boundary(frozen)


def test_frozen_rules_match_true_triangle_when_rules_are_right():
    # (1, 4, 9) is the true boundary for diagonals 1..3; the next diagonal
    # first stops at N = 20, so both triangles agree through row 19
    true = continuation_triangle("strike", 19)
    frozen = continuation_triangle("strike", 19, frozen_rules=(1, 4, 9))
    for n in range(2, 20):
        assert frozen.row(n) == true.row(n), n


def test_frozen_none_rule_means_never():
    # rules govern diagonals i >= 1; the full-prefix endgame at i = 0 always
    # fires for strike, so (2,1) keeps its leaf win but (3,1) loses the
    # disabled diagonal-1 stop
    a = continuation_triangle("strike", 12, frozen_rules=(None,))
    assert a.entry(2, 1) == 1
    assert a.entry(3, 1) == 2
    assert continuation_triangle("strike", 12).entry(3, 1) == 3
    b = continuation_triangle("trigger", 12, frozen_rules=(None, 1, 3, 8))
    assert b.entry(3, 1) == 0  # the only arm below (3,1) sat on diagonal 1
    c = continuation_triangle("trigger", 12, frozen_rules=(1, 1, 3, 8))
    assert c.entry(3, 1) == 2


def test_frozen_region_satisfies_ballot_recurrence():
    # below the frozen boundary the entries obey the same two-term
    # recurrence as the (shifted) ballot numbers, which is what makes the
    # linear fit possible at all
    frozen = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
    for n in range(8, 30):
        for k in range(2, n - 4):
            lhs = frozen.entry(n, k)
            assert lhs == frozen.entry(n - 1, k - 1) + frozen.entry(n, k + 1), (n, k)


def test_fit_strike_golden_coefficients():
    frozen = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
    fit = fit_shifted_ballot(frozen, diagonal=5, shifts=range(1, 9), fit_start=11)
    want = {1: 4, 2: -9, 3: 0, 4: 2, 5: 105, 6: -206, 7: 95, 8: -5}
    assert fit.coefficients == {i: Fraction(c) for i, c in want.items()}
    assert fit.fit_rows == tuple(range(11, 19))
    assert fit.verified_rows == (11, 30)
    assert limit_of_combination(fit.coefficients) == Fraction(32983, 65536)
    from beststop import decimal_str

    assert decimal_str(Fraction(32983, 65536)) == "0.5032806396484"


def test_fit_combination_diverges_from_true_triangle():
    # the fitted combination follows the frozen triangle, not the true one
    frozen = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
    fit = fit_shifted_ballot(frozen, diagonal=5, shifts=range(1, 9), fit_start=11)
    row9 = tuple(combination_value(fit.coefficients, 9, k) for k in range(1, 9))
    assert row9 == (2568, 1809, 1045, 540, 199, 77, 23, 4)
    true9 = GOLDEN_STRIKE_ROWS[9]
    assert row9[0] == true9[0] and row9[2] != true9[2]


def test_fit_trigger_bound():
    frozen = continuation_triangle("trigger", 40, frozen_rules=(1, 1, 3, 8))
    fit = fit_shifted_ballot(frozen, diagonal=6, shifts=range(1, 9), fit_start=11)
    want = {1: 4, 2: -9, 3: 0, 4: -1, 5: 126, 6: -251, 7: 125, 8: -8}
    assert fit.coefficients == {i: Fraction(c) for i, c in want.items()}
    assert limit_of_combination(fit.coefficients) == Fraction(8239, 16384)
    # fewer shifts cannot express the tail: the verify pass must catch it
    with pytest.raises(InconsistencyError):
        fit_shifted_ballot(frozen, diagonal=6, shifts=range(1, 8), fit_start=11)


def test_fit_names_the_entry_it_misses():
    # the check runs in integers; its message names the first missed entry
    # and gives the combination's value there as a reduced fraction
    frozen = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
    right = frozen.entry(25, 3)
    frozen.diags[25 - 3 - 1][3 - 1] += 1  # one entry past the fit rows, planted wrong
    with pytest.raises(InconsistencyError) as planted:
        fit_shifted_ballot(frozen, diagonal=5, shifts=range(1, 9), fit_start=11)
    assert str(planted.value) == (f"combination misses entry (25, 3): expected {right + 1}, "
                                  f"combination gives {right}")
    assert right == 1168252175736
    frozen = continuation_triangle("trigger", 40, frozen_rules=(1, 1, 3, 8))
    with pytest.raises(InconsistencyError) as short:
        fit_shifted_ballot(frozen, diagonal=6, shifts=range(1, 8), fit_start=11)
    assert str(short.value) == ("combination misses entry (11, 2): expected 21964, "
                                "combination gives 7094370/323")


def test_fit_smaller_truncations():
    a = continuation_triangle("trigger", 30, frozen_rules=(1, 1))
    fa = fit_shifted_ballot(a, diagonal=4, shifts=(1, 2), fit_start=11)
    assert limit_of_combination(fa.coefficients) == Fraction(7, 16)
    b = continuation_triangle("trigger", 30, frozen_rules=(1, 1, 3))
    fb = fit_shifted_ballot(b, diagonal=5, shifts=(1, 2, 3, 4), fit_start=11)
    assert limit_of_combination(fb.coefficients) == Fraction(127, 256)


def test_fit_errors():
    true = continuation_triangle("strike", 20)
    with pytest.raises(InvalidInputError):
        fit_shifted_ballot(true, diagonal=5, shifts=(1, 2), fit_start=11)
    frozen = continuation_triangle("strike", 20, frozen_rules=(1, 4, 9))
    with pytest.raises(InvalidInputError):
        fit_shifted_ballot(frozen, diagonal=5, shifts=(1, 12), fit_start=11)
    with pytest.raises(InvalidInputError):
        fit_shifted_ballot(frozen, diagonal=5, shifts=(), fit_start=11)
    with pytest.raises(DepthError):
        fit_shifted_ballot(frozen, diagonal=5, shifts=range(1, 9), fit_start=15)
    with pytest.raises(DepthError):
        fit_shifted_ballot(
            frozen, diagonal=5, shifts=(1, 2), fit_start=11, verify_stop=25
        )


def test_limit_of_combination_doc_case():
    assert limit_of_combination({1: Fraction(4), 2: Fraction(-9)}) == Fraction(7, 16)
    assert limit_of_combination({}) == 0


def test_closed_form_values():
    assert optimal_success_231(6) == Tally(42, 132)
    assert positional_success_321(5) == Tally(20, 42)
    assert positional_success_321(8) == Tally(717, 1430)
    name, val = optimal_success_123(4)
    assert (name, val) == ("positional:1", Tally(9, 14))
    name, val = optimal_success_213(6)
    assert (name, val) == ("strike:{1}", Tally(42, 132))
    with pytest.raises(InvalidInputError):
        positional_success_321(3)
    with pytest.raises(InvalidInputError):
        optimal_success_123(1)
    with pytest.raises(InvalidInputError):
        optimal_success_231(0)
