"""Command line front end.

Subcommands:

  solve     optimal value (and strategy) for one game, by tree search or
            closed form, or the exact value of a given strategy
  triangle  continuation-triangle tables: CSV entries, threshold tables,
            or single rows, with optional frozen boundaries and bands
  verify    self-contained cross-checks of the package's main results
  simulate  Monte Carlo estimate of a strategy's success probability
  tree      inspect a prefix tree or one of its nodes

Exit codes: 0 success, 1 usage or input problems, 2 resource or depth
limits, 3 a verification mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cache import cached_triangle
from .closedform import (
    continuation_triangle,
    fit_shifted_ballot,
    limit_of_combination,
    optimal_boundary,
    optimal_success_123,
    optimal_success_213,
    optimal_success_231,
    positional_success_321,
    strike_prob_321,
    trigger_prob_321,
)
from .errors import (
    BestStopError,
    DepthError,
    InconsistencyError,
    InvalidInputError,
    LimitError,
    UsageError,
)
from .optimizer import optimal_strike_set, optimal_trigger_set
from .permutations import (
    CLASSES,
    enumerate_class,
    pattern_class,
    perm_from_str,
    perm_to_str,
)
from .prefixtree import cached_tree, completion, successors, tree_to_json
from .strategy import Strategy, exact_success, parse_strategy, simulate
from .tallies import Tally, ballot, cmp_as_rational, decimal_str

CLASS_CHOICES = sorted(CLASSES)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="beststop", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")

    ps = sub.add_parser("solve", help="optimal or given-strategy value of a game")
    ps.add_argument("--class", dest="cls", required=True, choices=CLASS_CHOICES)
    ps.add_argument("--n", type=int, required=True, help="interview pool size")
    ps.add_argument("--mode", choices=("strike", "trigger"), default="strike")
    ps.add_argument("--formula", action="store_true", help="use closed forms instead of the tree")
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


def _tally_line(label: str, t: Tally) -> str:
    return f"{label} = {t} (~{decimal_str(t.as_rational())})"


# --- solve ------------------------------------------------------------------


def _solve_formula(name: str, n: int, mode: str) -> tuple[str, Tally]:
    if mode != "strike":
        raise InvalidInputError("--formula covers the strike game; drop --mode trigger")
    if name in ("231", "132"):
        return "strike:{1}", optimal_success_231(n)
    if name == "213":
        return optimal_success_213(n)
    if name == "123":
        if n == 1:
            return "strike:{1}", Tally(1, 1)
        return optimal_success_123(n)
    if name in ("321", "312"):
        t = continuation_triangle("strike", max(n, 2))
        return "threshold:strike", t.value(n, 1)
    raise InvalidInputError("no closed form for the unrestricted game; omit --formula")


def _cmd_solve(args) -> int:
    cls = pattern_class(args.cls)
    if args.n < 1:
        raise InvalidInputError(f"--n must be >= 1, got {args.n}")

    if args.strategy:
        s = parse_strategy(args.strategy, cls, args.n)
        if s.kind == "strike":
            # a bare strike set is understood up to completion: orders it
            # never fires on end in a forced stop at the last candidate
            full = completion(s.members, cached_tree(cls, args.n))
            s = Strategy(kind="strike", members=full.members, rank=args.n)
        value = exact_success(s, cls, args.n)
        payload = {"class": cls.name, "n": args.n, "strategy": s.describe(),
                   "value": str(value), "decimal": decimal_str(value.as_rational())}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"strategy {s.describe()}")
            print(_tally_line("value", value))
        return 0

    if args.formula:
        descr, value = _solve_formula(cls.name, args.n, args.mode)
        if args.json:
            print(json.dumps({"class": cls.name, "n": args.n, "strategy": descr,
                              "value": str(value),
                              "decimal": decimal_str(value.as_rational())}, indent=2))
        else:
            print(f"optimal strategy {descr}")
            print(_tally_line("value", value))
        return 0

    tree = cached_tree(cls, args.n)
    result = optimal_strike_set(tree) if args.mode == "strike" else optimal_trigger_set(tree)
    members = sorted(result.strike_set.members, key=lambda p: (len(p), p))
    names = ["null" if p == () else perm_to_str(p) for p in members]
    if args.json:
        print(json.dumps({"class": cls.name, "n": args.n, "mode": args.mode,
                          "members": names, "value": str(result.value),
                          "decimal": decimal_str(result.value.as_rational())}, indent=2))
    else:
        print(f"optimal {args.mode} set {{{','.join(names)}}}")
        print(_tally_line("value", result.value))
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
    if frozen is None and args.max_diag is None:
        t = cached_triangle(args.mode, args.rows)
    else:
        t = continuation_triangle(args.mode, args.rows, frozen_rules=frozen,
                                  max_diag=args.max_diag)

    if args.emit == "row":
        if args.n is None:
            raise UsageError("--emit row needs --n")
        print(",".join(str(v) for v in t.row(args.n)))
        return 0

    if args.emit == "sigma":
        if frozen is not None:
            raise InvalidInputError("sigma tables come from unfrozen triangles")
        table = optimal_boundary(t)
        print("i,sigma")
        for i in range(0, t.diag_limit + 1):
            v = table.get(i)
            print(f"{i},{'' if v is None else v}")
        return 0

    print("N,k,numerator,denominator,optimal")
    for n in range(2, t.max_n + 1):
        for k in range(max(1, n - t.diag_limit), n):
            print(f"{n},{k},{t.entry(n, k)},{ballot(n, k)},"
                  f"{int(t.is_optimal(n, k))}")
    return 0


# --- verify -------------------------------------------------------------------


def _verify_triangle(report) -> bool:
    """Triangle sweep agrees with tree-optimizer continuation values."""
    ok = True
    for mode in ("strike", "trigger"):
        t = continuation_triangle(mode, 12)
        cls = pattern_class("321")
        for n in range(2, 10):
            tree = cached_tree(cls, n)
            res = optimal_strike_set(tree) if mode == "strike" else optimal_trigger_set(tree)
            for k in range(1, n):
                inc = tuple(range(1, k + 1))
                below = res.per_node_values.get(inc)
                if below is None or below.wins != t.entry(n, k) or below.total != ballot(n, k):
                    report(f"triangle: ({n},{k}) {mode} sweep {t.entry(n,k)} "
                           f"vs tree {below}")
                    ok = False
    return ok


def _verify_figures_321(report) -> bool:
    """Strike/trigger recursions agree with tree tallies on every prefix."""
    cls = pattern_class("321")
    ok = True
    for n in range(2, 8):
        tree = cached_tree(cls, n)
        for node in tree.nodes():
            s = strike_prob_321(node.prefix, n)
            if (s.wins, s.total) != (node.strike.wins, node.strike.total):
                report(f"figures-321: strike {perm_to_str(node.prefix)} at {n}: "
                       f"recursion {s}, tree {node.strike}")
                ok = False
            tr = trigger_prob_321(node.prefix, n)
            if (tr.wins, tr.total) != (node.trigger.wins, node.trigger.total):
                report(f"figures-321: trigger {perm_to_str(node.prefix)} at {n}: "
                       f"recursion {tr}, tree {node.trigger}")
                ok = False
    return ok


def _verify_catalan_231(report) -> bool:
    """Optimal 231 value is catalan(n-1)/catalan(n); strike:{1} achieves it."""
    cls = pattern_class("231")
    ok = True
    for n in range(2, 9):
        want = optimal_success_231(n)
        got = optimal_strike_set(cached_tree(cls, n)).value
        if cmp_as_rational(want, got) != 0:
            report(f"catalan-231: n={n} optimizer {got} vs formula {want}")
            ok = False
        s = parse_strategy("strike:{1}", cls, n)
        v = exact_success(s, cls, n)
        if cmp_as_rational(v, want) != 0:
            report(f"catalan-231: n={n} strike:{{1}} plays to {v}, formula {want}")
            ok = False
    return ok


def _verify_closed_forms(report) -> bool:
    """123 and 213 optimal values match their formulas (play-verified)."""
    ok = True
    for n in range(2, 9):
        descr, want = optimal_success_123(n)
        cls = pattern_class("123")
        got = optimal_strike_set(cached_tree(cls, n)).value
        if cmp_as_rational(want, got) != 0:
            report(f"closed-forms: 123 n={n} optimizer {got} vs formula {want}")
            ok = False
        v = exact_success(parse_strategy(descr, cls, n), cls, n)
        if cmp_as_rational(v, want) != 0:
            report(f"closed-forms: 123 n={n} {descr} plays to {v}, formula {want}")
            ok = False
    for n in range(2, 9):
        descr, want = optimal_success_213(n)
        cls = pattern_class("213")
        got = optimal_strike_set(cached_tree(cls, n)).value
        if cmp_as_rational(want, got) != 0:
            report(f"closed-forms: 213 n={n} optimizer {got} vs formula {want}")
            ok = False
        v = exact_success(parse_strategy(descr, cls, n), cls, n)
        if cmp_as_rational(v, want) != 0:
            report(f"closed-forms: 213 n={n} {descr} plays to {v}, formula {want}")
            ok = False
    return ok


def _verify_positional_321(report) -> bool:
    """The wait-out-all-but-three rule matches its closed form by brute force."""
    cls = pattern_class("321")
    ok = True
    for n in range(5, 10):
        want = positional_success_321(n)
        s = parse_strategy(f"positional:{n - 3}", cls, n)
        got = exact_success(s, cls, n)
        if cmp_as_rational(want, got) != 0:
            report(f"positional-321: n={n} play {got} vs formula {want}")
            ok = False
    return ok


def _verify_asymptote_321(report) -> bool:
    """The (1,4,9)-boundary value fits 8 shifted ballot columns; limit 32983/65536."""
    t = continuation_triangle("strike", 30, frozen_rules=(1, 4, 9))
    try:
        fit = fit_shifted_ballot(t, diagonal=5, shifts=range(1, 9), fit_start=11,
                                 verify_stop=30)
    except BestStopError as e:
        report(f"asymptote-321: fit failed: {e}")
        return False
    lim = limit_of_combination(fit.coefficients)
    if lim != Fraction(32983, 65536):
        report(f"asymptote-321: limit {lim}, expected 32983/65536")
        return False
    return True


def _verify_trigger_bound(report) -> bool:
    """The (1,1,3,8)-boundary trigger value has limit 8239/16384."""
    t = continuation_triangle("trigger", 40, frozen_rules=(1, 1, 3, 8))
    try:
        fit = fit_shifted_ballot(t, diagonal=6, shifts=range(1, 9), fit_start=11,
                                 verify_stop=40)
    except BestStopError as e:
        report(f"trigger-bound: fit failed: {e}")
        return False
    lim = limit_of_combination(fit.coefficients)
    if lim != Fraction(8239, 16384):
        report(f"trigger-bound: limit {lim}, expected 8239/16384")
        return False
    return True


def _verify_west(report) -> bool:
    from .bijections import verify_tree_isomorphism

    ok = True
    for n in range(2, 8):
        r = verify_tree_isomorphism("321", "312", n)
        if not r.ok:
            report(f"west: rank {n} mismatch at {r.first_mismatch}")
            ok = False
    return ok


def _verify_upsilon(report) -> bool:
    from .bijections import convert_132_to_231, convert_231_to_132, verify_tree_isomorphism

    ok = True
    for n in range(2, 8):
        r = verify_tree_isomorphism("231", "132", n)
        if not r.ok:
            report(f"upsilon: rank {n} mismatch at {r.first_mismatch}")
            ok = False
    cls = pattern_class("231")
    for n in range(1, 8):
        for p in enumerate_class(cls, n):
            if convert_132_to_231(convert_231_to_132(p)) != p:
                report(f"upsilon: round trip fails at {perm_to_str(p)}")
                return False
    return ok


VERIFY_TARGETS = {
    "triangle": _verify_triangle,
    "figures-321": _verify_figures_321,
    "catalan-231": _verify_catalan_231,
    "closed-forms": _verify_closed_forms,
    "positional-321": _verify_positional_321,
    "asymptote-321": _verify_asymptote_321,
    "trigger-bound": _verify_trigger_bound,
    "west": _verify_west,
    "upsilon": _verify_upsilon,
}


def _cmd_verify(args) -> int:
    names = args.targets or list(VERIFY_TARGETS)
    unknown = [t for t in names if t not in VERIFY_TARGETS]
    if unknown:
        raise UsageError(f"unknown verify target(s): {', '.join(unknown)}")
    failed = False
    for name in names:
        messages: list[str] = []
        ok = VERIFY_TARGETS[name](messages.append)
        if ok:
            print(f"ok   {name}")
        else:
            failed = True
            print(f"FAIL {name}")
            for m in messages[:5]:
                print(f"     {m}")
    return 3 if failed else 0


# --- simulate / tree ----------------------------------------------------------


def _cmd_simulate(args) -> int:
    cls = pattern_class(args.cls)
    s = parse_strategy(args.strategy, cls, args.n)
    rep = simulate(s, cls, args.n, args.trials, seed=args.seed)
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
    tree = cached_tree(cls, args.n)
    if args.prefix:
        p = () if args.prefix == "null" else perm_from_str(args.prefix)
        node = tree.node(p)
        name = "null" if p == () else perm_to_str(p)
        if args.json:
            print(json.dumps({
                "prefix": name, "eligible": node.eligible,
                "strike": str(node.strike), "trigger": str(node.trigger),
                "children": [perm_to_str(c.prefix) for c in node.children],
            }, indent=2))
        else:
            print(f"node {name}: eligible={node.eligible} "
                  f"strike={node.strike} trigger={node.trigger}")
            if p and len(p) < args.n and node.eligible:
                succ = successors(tree, p)
                print("successors: " + ", ".join(perm_to_str(s.prefix) for s in succ))
        return 0
    if args.json:
        print(tree_to_json(tree))
    else:
        for node in tree.nodes():
            pad = "  " * (len(node.prefix) - 1)
            mark = "*" if node.eligible else " "
            print(f"{pad}{perm_to_str(node.prefix)} {mark} "
                  f"strike={node.strike} trigger={node.trigger}")
    return 0


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
        return COMMANDS[args.command](args)
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
