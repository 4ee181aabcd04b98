"""Workload command lists and the reference answers they are checked against.

A workload is a list of ``beststop`` command lines, made from a seed, plus a
checker that reads the captured outputs.  The references here come from
closed forms and published values computed with plain ``math``/``fractions``,
never from the ``beststop`` code path that produced the output.

Each command result handed to a checker is a dict with the keys ``argv``,
``rc``, ``out``, ``err`` and ``cache`` (a snapshot of the cache directory
taken after the command: file name -> (inode, mtime_ns, size)).
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

NAMES = ("tree-solve", "triangle-sweep", "strategy-play")

# Optimal value of the 321-avoiding (and, through the West correspondence,
# the 312-avoiding) game.  23/42 is the paper's rank-5 headline value; the
# rank-10 value is the published 8833/16796.
OPTIMUM_321 = {5: Fraction(23, 42), 10: Fraction(8833, 16796)}

# sigma(i) for i = 0..7 at any depth >= 60 (tests/test_closedform.py).
SIGMA_HEADS = {
    "strike": [1, 1, 4, 9, 16, 25, 36, 49],
    "trigger": [None, 1, 1, 3, 8, 15, 25, 36],
}

FULL = {
    "tree": [("231", 10), ("132", 9), ("123", 9), ("213", 9),
             ("321", 10), ("312", 10), ("none", 8)],
    "rows": 500, "band_rows": 5000, "band_diag": 20,
    "play_n": {"321": 10, "312": 10, "231": 9},
    "trials": (50000, 20000),
}
# The same commands at sizes that run in well under a second, for the
# benchmark's own test.
TINY = {
    "tree": [("231", 6), ("132", 5), ("123", 5), ("213", 5),
             ("321", 5), ("312", 5), ("none", 5)],
    "rows": 60, "band_rows": 200, "band_diag": 7,
    "play_n": {"321": 5, "312": 5, "231": 5},
    "trials": (2000, 1000),
}


# --- independent references ----------------------------------------------------


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    return (k + 1) * math.comb(2 * n - k, n) // (n + 1)


def secretary(n: int) -> Fraction:
    """Classical best-choice value: reject the first r-1, then take the
    next running maximum, with the best cutoff r."""
    best = Fraction(1, n)
    for r in range(2, n + 1):
        v = Fraction(r - 1, n) * sum(Fraction(1, j - 1) for j in range(r, n + 1))
        best = max(best, v)
    return best


def class_size(cls: str, n: int) -> int:
    return math.factorial(n) if cls == "none" else catalan(n)


def optimum(cls: str, n: int) -> Fraction:
    if cls == "none":
        return secretary(n)
    if cls in ("231", "132", "213"):
        return Fraction(catalan(n - 1), catalan(n))
    if cls == "123":
        return Fraction(ballot(n, 2), catalan(n))
    return OPTIMUM_321[n]


# --- command lists ---------------------------------------------------------------


def plan(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The command lines of one pass.  The seed orders the two modes at each
    step and seeds the simulations.  The order of classes and sizes stays
    fixed: the trees stay cached in-process, so it sets the peak RSS."""
    rnd = random.Random(seed)
    size = TINY if tiny else FULL
    if name == "tree-solve":
        cmds = []
        for cls, n in size["tree"]:
            modes = ["strike", "trigger"]  # the second mode reuses the cached tree
            rnd.shuffle(modes)
            cmds += [["solve", "--class", cls, "--n", str(n), "--mode", m] for m in modes]
        return cmds + [["verify", "west", "upsilon"]]
    if name == "triangle-sweep":
        rows, band_rows, diag = size["rows"], size["band_rows"], size["band_diag"]
        cmds = []
        for _stage in ("cold", "warm"):
            modes = ["strike", "trigger"]
            rnd.shuffle(modes)
            cmds += [["triangle", "--rows", str(rows), "--emit", "sigma", "--mode", m]
                     for m in modes]
        modes = ["strike", "trigger"]
        rnd.shuffle(modes)
        cmds += [["triangle", "--rows", str(band_rows), "--max-diag", str(diag),
                  "--emit", "sigma", "--mode", m] for m in modes]
        return cmds + [["verify", "asymptote-321", "trigger-bound"]]
    if name == "strategy-play":
        n = size["play_n"]
        t1, t2 = size["trials"]
        return [
            ["solve", "--class", "321", "--n", str(n["321"]), "--strategy", "threshold:strike"],
            ["solve", "--class", "312", "--n", str(n["312"]), "--strategy", "threshold:trigger"],
            ["solve", "--class", "231", "--n", str(n["231"]), "--strategy", "strike:{1}"],
            ["simulate", "--class", "321", "--n", str(n["321"]), "--strategy",
             "threshold:strike", "--trials", str(t1), "--seed", str(seed)],
            ["simulate", "--class", "312", "--n", str(n["312"]), "--strategy",
             "threshold:trigger", "--trials", str(t2), "--seed", str(seed + 1)],
        ]
    raise ValueError(f"unknown workload {name!r}")


# --- output checks ---------------------------------------------------------------

_VALUE = re.compile(r"^value = (\d+)/(\d+) ", re.M)
_WINS = re.compile(r"^wins (\d+)/(\d+) ", re.M)


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _value(out: str) -> tuple[int, int]:
    m = _VALUE.search(out)
    if m is None:
        raise ValueError("no 'value = W/T' line")
    return int(m.group(1)), int(m.group(2))


def _sigma(out: str) -> dict[int, int | None]:
    lines = out.splitlines()
    if not lines or lines[0] != "i,sigma":
        raise ValueError("no sigma table")
    table = {}
    for line in lines[1:]:
        i, _, v = line.partition(",")
        table[int(i)] = int(v) if v else None
    return table


def check(name: str, results: list[dict]) -> list[tuple[int, str]]:
    """Return (command index, reason) for every command whose output is wrong.

    A failed exit code, a parse error or a mismatch against the references
    counts against the command that produced it; a check that compares two
    commands counts against the later one."""
    bad: list[tuple[int, str]] = []
    for i, r in enumerate(results):
        if r["rc"] != 0:
            bad.append((i, f"exit code {r['rc']}: {r['err'].strip()[:200]}"))
    failed = {i for i, _ in bad}
    ok = [i for i in range(len(results)) if i not in failed]
    checker = {"tree-solve": _check_tree, "triangle-sweep": _check_triangle,
               "strategy-play": _check_play}[name]
    for i in ok:
        try:
            reason = _check_verify(results[i]) if results[i]["argv"][0] == "verify" \
                else checker(i, results)
        except (ValueError, KeyError, IndexError, StopIteration) as e:
            reason = f"unreadable output: {e}"
        if reason:
            bad.append((i, reason))
    return bad


def _check_verify(r: dict) -> str | None:
    want = "".join(f"ok   {t}\n" for t in r["argv"][1:])
    return None if r["out"] == want else f"verify printed {r['out']!r}"


def _check_tree(i: int, results: list[dict]) -> str | None:
    r = results[i]
    argv = r["argv"]
    cls, n = _opt(argv, "--class"), int(_opt(argv, "--n"))
    wins, total = _value(r["out"])
    if total != class_size(cls, n):
        return f"total {total}, class size {class_size(cls, n)}"
    if Fraction(wins, total) != optimum(cls, n):
        return f"value {wins}/{total}, reference {optimum(cls, n)}"
    prev = results[i - 1] if i else None
    if prev and prev["argv"][:5] == argv[:5] and prev["rc"] == 0 \
            and _value(prev["out"]) != (wins, total):
        return f"{_opt(argv, '--mode')} {wins}/{total} differs from the other mode's " \
               f"{_value(prev['out'])}"
    return None


def _check_triangle(i: int, results: list[dict]) -> str | None:
    r = results[i]
    argv = r["argv"]
    mode = _opt(argv, "--mode")
    table = _sigma(r["out"])
    heads = SIGMA_HEADS[mode]
    got = [table.get(j) for j in range(len(heads))]
    if got != heads:
        return f"sigma head {got}, golden {heads}"
    same = [j for j in range(i) if results[j]["argv"] == argv]
    if "--max-diag" in argv:
        full_run = next(j for j in range(i) if results[j]["argv"][0] == "triangle"
                        and _opt(results[j]["argv"], "--mode") == mode
                        and "--max-diag" not in results[j]["argv"])
        full = _sigma(results[full_run]["out"])
        diag = int(_opt(argv, "--max-diag"))
        if sorted(table) != list(range(diag + 1)):
            return f"band table covers {sorted(table)}"
        for j in range(diag + 1):
            if full.get(j) is not None and table[j] != full[j]:
                return f"band sigma({j}) = {table[j]}, full triangle {full[j]}"
        return None
    fname = f"triangle-{mode}-{_opt(argv, '--rows')}.json"
    if not same:
        # cold: nothing was cached before this command, and it stored its triangle
        before = results[i - 1]["cache"] if i else {}
        if fname in before:
            return f"{fname} existed before the cold pass"
        if fname not in r["cache"]:
            return f"cold pass did not store {fname}"
        return None
    cold = results[same[0]]
    if r["out"] != cold["out"]:
        return "warm output differs from cold output"
    if r["cache"].get(fname) != cold["cache"].get(fname):
        return f"warm pass rewrote {fname} instead of loading it"
    return None


def _check_play(i: int, results: list[dict]) -> str | None:
    r = results[i]
    argv = r["argv"]
    cls, n = _opt(argv, "--class"), int(_opt(argv, "--n"))
    exact = optimum(cls, n)
    if argv[0] == "solve":
        wins, total = _value(r["out"])
        if total != class_size(cls, n) or Fraction(wins, total) != exact:
            return f"value {wins}/{total}, reference {exact} over {class_size(cls, n)}"
        return None
    m = _WINS.search(r["out"])
    if m is None:
        raise ValueError("no 'wins W/T' line")
    wins, trials = int(m.group(1)), int(m.group(2))
    if trials != int(_opt(argv, "--trials")):
        return f"ran {trials} trials"
    p = float(exact)
    se = math.sqrt(p * (1 - p) / trials)
    if abs(wins / trials - p) > 5 * se:
        return f"estimate {wins}/{trials} is over 5 standard errors from {exact}"
    return None
