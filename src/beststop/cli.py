"""Command line front end.

Subcommands:

  solve     optimal value (and strategy) for one game, by backward
            induction on the label DAG or by closed form, or the exact value
            of a given strategy
  triangle  continuation-triangle tables: CSV entries, threshold tables,
            or single rows, with optional frozen boundaries and bands
  verify    self-contained cross-checks of the package's main results
  simulate  Monte Carlo estimate of a strategy's success probability
  tree      inspect a prefix tree or one of its nodes

Exit codes: 0 success, 1 usage or input problems (or stdout closed
early), 2 resource or depth limits, 3 a verification mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .cache import cached_boundary
from .closedform import (
    _check_triangle,
    continuation_triangle,
    fit_shifted_ballot,
    limit_of_combination,
    optimal_success_123,
    optimal_success_213,
    optimal_success_231,
    positional_success_321,
    sigma_table,
    strike_numerator,
    strike_prob_321,
    sweep,
    trigger_prob_321,
)
from .errors import (FORMULA_MAX_RANK, BestStopError, DepthError, InconsistencyError,
                     InvalidInputError, LimitError, UsageError)
from .optimizer import (Game, _check_caps, completion, game, optimal_strike_set,
                        optimal_trigger_set, successors)
from .permutations import (CLASSES, _perm_str, extend, is_eligible, pattern_class,
                           perm_from_str, perm_to_str)
from .strategy import (Strategy, _check_trials, exact_success, member_names, members_str,
                       parse_strategy, simulate)
from .tallies import Tally, ballot, cmp_as_rational, decimal_str

CLASS_CHOICES = sorted(CLASSES)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and then shared: it
    holds no state between parses, and building it costs about 1 ms."""
    p = _Parser(prog="beststop", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")

    ps = sub.add_parser("solve", help="optimal or given-strategy value of a game")
    ps.add_argument("--class", dest="cls", required=True, choices=CLASS_CHOICES)
    ps.add_argument("--n", type=int, required=True, help="interview pool size")
    ps.add_argument("--mode", choices=("strike", "trigger"), default="strike")
    ps.add_argument("--formula", action="store_true", help="use closed forms instead of backward induction")
    ps.add_argument("--strategy", help="evaluate this strategy descriptor instead of optimizing")
    ps.add_argument("--json", action="store_true")

    pt = sub.add_parser("triangle", help="continuation triangle tables")
    pt.add_argument("--mode", choices=("strike", "trigger"), default="strike")
    pt.add_argument("--rows", type=int, required=True, help="compute rows 2..ROWS")
    pt.add_argument("--emit", choices=("csv", "sigma", "row"), default="csv")
    pt.add_argument("--n", type=int, help="row to print with --emit row")
    pt.add_argument("--frozen", help="comma list of boundary rules; '-' marks a skipped diagonal")
    pt.add_argument("--max-diag", type=int, help="band mode: only diagonals N-k <= D")

    pv = sub.add_parser("verify", help="run self-contained cross-checks")
    pv.add_argument("targets", nargs="*", metavar="target",
                    help=f"subset of: {', '.join(VERIFY_TARGETS)} (default all)")

    pm = sub.add_parser("simulate", help="Monte Carlo estimate for a strategy")
    pm.add_argument("--class", dest="cls", required=True, choices=CLASS_CHOICES)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--strategy", required=True)
    pm.add_argument("--trials", type=int, default=100000)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--json", action="store_true")

    pr = sub.add_parser("tree", help="inspect a prefix tree")
    pr.add_argument("--class", dest="cls", required=True, choices=CLASS_CHOICES)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--prefix", help="show one node instead of the whole tree")
    pr.add_argument("--json", action="store_true")

    return p


# --- solve ------------------------------------------------------------------


def _solve_formula(name: str, n: int, mode: str) -> tuple[str, Tally]:
    if mode != "strike":
        raise InvalidInputError("--formula covers the strike game; drop --mode trigger")
    if name == "none":
        raise InvalidInputError("no closed form for the unrestricted game; omit --formula")
    if n > FORMULA_MAX_RANK:
        raise LimitError(f"rank {n} exceeds the closed-form cap {FORMULA_MAX_RANK}")
    if name in ("231", "132"):
        return "strike:{1}", optimal_success_231(n)
    if name == "213":
        return optimal_success_213(n)
    if name == "123":
        if n == 1:
            return "strike:{1}", Tally(1, 1)
        return optimal_success_123(n)
    # the best value below the first candidate, entry (n, 1), is the first
    # column of the sweep's last diagonal, n - 1; at n = 1 it is the zero
    # column k = n
    below = 0
    for diagonal, _ in sweep("strike", n) if n > 1 else ():
        below = diagonal[0]
    return "threshold:strike", Tally(max(below, strike_numerator(n, 1)), ballot(n, 1))


def _given_strategy(s: Strategy, cls, n: int) -> tuple[Strategy, Game]:
    """A parsed --strategy and its game, refused past the tree's caps
    before the sweep.  A bare strike set is understood up to completion:
    orders it never fires on end in a forced stop at the last candidate."""
    _check_caps(cls, n)
    g = game(cls, n)
    if s.kind == "strike":
        s = Strategy(kind="strike", members=completion(s.members, g).members, rank=n)
    return s, g


def _cmd_solve(args) -> int:
    cls = pattern_class(args.cls)
    if args.n < 1:
        raise InvalidInputError(f"--n must be >= 1, got {args.n}")

    if args.strategy:
        s, g = _given_strategy(parse_strategy(args.strategy, cls, args.n), cls, args.n)
        value = exact_success(s, g)
        head, fields = f"strategy {s.describe()}", {"strategy": s.describe()}
    elif args.formula:
        descr, value = _solve_formula(cls.name, args.n, args.mode)
        head, fields = f"optimal strategy {descr}", {"strategy": descr}
    else:
        _check_caps(cls, args.n)
        optimize = optimal_strike_set if args.mode == "strike" else optimal_trigger_set
        result = optimize(game(cls, args.n))
        value, names = result.value, member_names(result.stops())
        del result  # else the game's cached moves stay alive, and raise the peak, while it prints
        head = f"optimal {args.mode} set {members_str(names)}"
        fields = {"mode": args.mode, "members": names}
    decimal = decimal_str(value.as_rational())
    if args.json:
        print(json.dumps({"class": cls.name, "n": args.n, **fields, "value": str(value),
                          "decimal": decimal}, indent=2))
    else:
        print(head)
        print(f"value = {value} (~{decimal})")
    return 0


# --- triangle -----------------------------------------------------------------


def _parse_frozen(text: str) -> tuple:
    rules = []
    for token in text.split(","):
        token = token.strip()
        if token in ("-", "none", ""):
            rules.append(None)
        else:
            try:
                rules.append(int(token))
            except ValueError:
                raise InvalidInputError(f"bad frozen rule {token!r}") from None
    return tuple(rules)


def _cmd_triangle(args) -> int:
    frozen = _parse_frozen(args.frozen) if args.frozen else None
    # argument errors surface before the sweep
    if args.emit == "row":
        if args.n is None:
            raise UsageError("--emit row needs --n")
        if not 2 <= args.n <= args.rows:
            raise InvalidInputError(f"row {args.n} out of range 2..{args.rows}")
        # a --max-diag below 1 is left to the sweep, which names it
        if args.max_diag is not None and 1 <= args.max_diag < args.n - 1:
            raise DepthError(f"row {args.n} was not fully computed (band triangle)")
    if args.emit == "sigma":
        if frozen is not None:
            raise InvalidInputError("sigma tables come from unfrozen triangles")
        # only the full table is cached; a band is swept every time
        if args.max_diag is None:
            table = cached_boundary(args.mode, args.rows)
        else:
            table = sigma_table(args.mode, args.rows, max_diag=args.max_diag)
        print("i,sigma")
        for i, v in table.values.items():
            print(f"{i},{'' if v is None else v}")
        return 0

    if args.emit == "row":
        # no entry of row n reads a deeper row, so after the checks of the
        # whole triangle an n-row sweep gives it: entry (n, n - i) ends its
        # diagonal i, from k = n down
        _check_triangle(args.mode, args.rows, args.max_diag)
        row = [diagonal[-1] for diagonal, _ in sweep(args.mode, args.n, frozen_rules=frozen)]
        print(",".join(map(str, reversed(row[1:]))))
        return 0

    t = continuation_triangle(args.mode, args.rows, frozen_rules=frozen, max_diag=args.max_diag)
    print("N,k,numerator,denominator,optimal")
    for n, k, e, d, optimal in t.by_row():
        print(f"{n},{k},{e},{d},{int(optimal)}")
    return 0


# --- verify -------------------------------------------------------------------


def _verify_triangle(report) -> None:
    """The triangle sweep's entries agree with the optimizer's best values
    below the increasing 321 prefixes, for every row up to 12 in both modes."""
    games = [game("321", n) for n in range(2, 13)]
    for mode, optimize in (("strike", optimal_strike_set), ("trigger", optimal_trigger_set)):
        t = continuation_triangle(mode, 12)
        for g in games:
            n, res = g.rank, optimize(g)
            for k in range(1, n):
                below = res.per_node_values[g.state(tuple(range(1, k + 1)))]
                if below.wins != t.entry(n, k) or below.total != ballot(n, k):
                    report(f"({n},{k}) {mode} sweep {t.entry(n,k)} vs optimizer {below}")


def _verify_figures_321(report) -> None:
    """Strike/trigger recursions agree with tree tallies on every prefix."""
    for n in range(2, 8):
        g = game("321", n)
        for p, k, label, eligible, _ in g.walk(start=(1,)):
            p, (total, z0, z1, _, _) = tuple(p), g.states[k][label]
            for mode, recursion, tree in (
                    ("strike", strike_prob_321(p, n), Tally(z0 if eligible else 0, total)),
                    ("trigger", trigger_prob_321(p, n), Tally(z1, total))):
                if recursion != tree:
                    report(f"{mode} {perm_to_str(p)} at {n}: recursion {recursion}, tree {tree}")


def _check_formula(report, *names: str) -> None:
    """For each class named and 2 <= n <= 8, with (descr, want) the strategy
    and value solve --formula prints: the optimizer's value is want, and
    the strategy descr plays to want."""
    for name in names:
        cls = pattern_class(name)
        for n in range(2, 9):
            descr, want = _solve_formula(name, n, "strike")
            g = game(cls, n)
            got = optimal_strike_set(g).value
            if cmp_as_rational(want, got) != 0:
                report(f"{name} n={n} optimizer {got} vs formula {want}")
            v = exact_success(parse_strategy(descr, cls, n), g)
            if cmp_as_rational(v, want) != 0:
                report(f"{name} n={n} {descr} plays to {v}, formula {want}")


def _verify_positional_321(report) -> None:
    """The wait-out-all-but-three rule matches its closed form by brute force."""
    cls = pattern_class("321")
    for n in range(5, 10):
        want = positional_success_321(n)
        s = parse_strategy(f"positional:{n - 3}", cls, n)
        got = exact_success(s, game(cls, n))
        if cmp_as_rational(want, got) != 0:
            report(f"n={n} play {got} vs formula {want}")


def _fit_limit(report, mode: str, rows: int, rules: tuple, diagonal: int,
               limit: Fraction) -> None:
    """The value of the triangle frozen at rules fits 8 shifted ballot
    columns on rows up to rows, and its limit is limit."""
    t = continuation_triangle(mode, rows, frozen_rules=rules)
    try:
        fit = fit_shifted_ballot(t, diagonal=diagonal, shifts=range(1, 9),
                                 fit_start=11, verify_stop=rows)
    except BestStopError as e:
        report(f"fit failed: {e}")
        return
    lim = limit_of_combination(fit.coefficients)
    if lim != limit:
        report(f"limit {lim}, expected {limit}")


def _check_isomorphism(report, a: str, b: str) -> None:
    """verify_tree_isomorphism(a, b, n) holds for 2 <= n <= 7."""
    from .bijections import verify_tree_isomorphism

    for n in range(2, 8):
        r = verify_tree_isomorphism(a, b, n)
        if not r.ok:
            report(f"rank {n} mismatch at {r.first_mismatch}")


# each target reports its mismatches and fails exactly when it reports one
VERIFY_TARGETS = {
    "triangle": _verify_triangle,
    "figures-321": _verify_figures_321,
    # 231's value is catalan(n-1)/catalan(n), and strike:{1} reaches it
    "catalan-231": lambda report: _check_formula(report, "231"),
    "closed-forms": lambda report: _check_formula(report, "123", "213"),
    "positional-321": _verify_positional_321,
    "asymptote-321": lambda report: _fit_limit(report, "strike", 30, (1, 4, 9), 5,
                                               Fraction(32983, 65536)),
    "trigger-bound": lambda report: _fit_limit(report, "trigger", 40, (1, 1, 3, 8), 6,
                                               Fraction(8239, 16384)),
    "west": lambda report: _check_isomorphism(report, "321", "312"),
    # the 231/132 maps' round trip is checked on every prefix of the walks
    "upsilon": lambda report: _check_isomorphism(report, "231", "132"),
}


def _cmd_verify(args) -> int:
    names = args.targets or list(VERIFY_TARGETS)
    unknown = [t for t in names if t not in VERIFY_TARGETS]
    if unknown:
        raise UsageError(f"unknown verify target(s): {', '.join(unknown)}")
    failed = False
    for name in names:
        messages: list[str] = []
        VERIFY_TARGETS[name](messages.append)
        if not messages:
            print(f"ok   {name}")
        else:
            failed = True
            print(f"FAIL {name}")
            for m in messages[:5]:
                print(f"     {name}: {m}")
    return 3 if failed else 0


# --- simulate / tree ----------------------------------------------------------


def _cmd_simulate(args) -> int:
    cls = pattern_class(args.cls)
    s = parse_strategy(args.strategy, cls, args.n)
    _check_trials(args.trials, args.n)
    s, g = _given_strategy(s, cls, args.n)
    rep = simulate(s, g, args.trials, seed=args.seed)
    if args.json:
        print(json.dumps({"class": cls.name, "n": args.n, "strategy": s.describe(),
                          "trials": rep.trials, "wins": rep.wins,
                          "estimate": float(rep.estimate),
                          "std_error": rep.std_error, "seed": rep.seed}, indent=2))
    else:
        print(f"strategy {s.describe()} on {cls.name}, n={args.n}")
        print(f"wins {rep.wins}/{rep.trials} (~{float(rep.estimate):.6f}, "
              f"std error {rep.std_error:.6f}, seed {rep.seed})")
    return 0


def _cmd_tree(args) -> int:
    cls = pattern_class(args.cls)
    p = None if args.prefix is None else () if args.prefix == "null" else perm_from_str(args.prefix)
    _check_caps(cls, args.n)
    g = game(cls, args.n)
    if p is None:
        _print_tree(g, args.json)
        return 0
    k, label = g.state(p)
    total, z0, z1, _, _ = g.states[k][label]
    eligible = is_eligible(p)
    strike, trigger = Tally(z0 if eligible else 0, total), Tally(z1, total)
    name = "null" if p == () else _perm_str(p)
    if args.json:
        print(json.dumps({
            "prefix": name, "eligible": eligible,
            "strike": str(strike), "trigger": str(trigger),
            "children": [_perm_str(extend(p, c)) for c, *_ in g.moves[k][label]],
        }, indent=2))
    else:
        print(f"node {name}: eligible={eligible} strike={strike} trigger={trigger}")
        if eligible and k < args.n:
            print("successors: " + ", ".join(_perm_str(q) for q in successors(g, p)))
    return 0


def _print_tree(g: Game, as_json: bool) -> None:
    """Every node from the root down, a line each off the game's walk, or
    with as_json the bytes json.dumps(..., indent=2) gives for the nested
    nodes, written a node at a time: no tree and no whole document is held."""
    n, states, write, depth = g.rank, g.states, sys.stdout.write, 0
    # ends[j] closes a node at depth j < n; a leaf, at depth n, closes itself
    ends = [f"\n{'    ' * (j - 1)}  ]\n{'    ' * (j - 1)}}}" for j in range(n)]
    for p, k, label, eligible, _ in g.walk(start=(1,)):
        total, z0, z1, _, _ = states[k][label]
        strike, trigger = f"{z0 if eligible else 0}/{total}", f"{z1}/{total}"
        if not as_json:
            write(f"{'  ' * (k - 1)}{_perm_str(p)} {'*' if eligible else ' '} "
                  f"strike={strike} trigger={trigger}\n")
            continue
        # after its parent, or after a leaf: close the leaf's ancestors down to a sibling
        if depth:
            write("\n" if k > depth else "".join(reversed(ends[k:depth])) + ",\n")
        pad = "    " * (k - 1)
        write(f'{pad}{{\n{pad}  "prefix": "{_perm_str(p)}",\n'
              f'{pad}  "eligible": {"true" if eligible else "false"},\n'
              f'{pad}  "strike": "{strike}",\n{pad}  "trigger": "{trigger}",\n'
              f'{pad}  "children": [' + (f"]\n{pad}}}" if k == n else ""))
        depth = k
    if as_json:
        write("".join(reversed(ends[1:])) + "\n")


COMMANDS = {
    "solve": _cmd_solve,
    "triangle": _cmd_triangle,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "tree": _cmd_tree,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`); the signal module's
        # documentation points stdout at devnull so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (LimitError, DepthError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InconsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BestStopError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
