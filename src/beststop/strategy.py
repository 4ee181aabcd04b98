"""Playable stopping strategies and their exact and simulated values.

A strategy watches the flattened prefixes of an interview order, one entry
at a time, and decides when to stop.  Four kinds are supported:

  strike      stop the moment the observed prefix is in a fixed set
  trigger     once the observed prefix is in a fixed set, accept the next
              candidate (the next entry that is a running maximum)
  positional  trigger after a fixed number of entries, regardless of what
              they were
  threshold   stop (or trigger) once the count of saturated top values
              reaches a bound that depends on how many entries remain

Strategies never look ahead: one rule decides, from the prefix seen so far,
whether a strategy acts there (strike kinds accept, the others arm).  play
applies it prefix by prefix to one order.  exact_success and simulate read
one compiled form of a strategy on a game (optimizer.game's sweep of the
label DAG, with no tree): the walk table _draw_table builds from the game's
moves, a node per state and how far the strategy has got, with the winning
completions below each node summed by one backward pass.  exact_success
reads the root's wins.  simulate draws each trial as one uniform
root-to-leaf path through the table by rng.walks and reads its win off the
node where the path ends.  The paths read one SplitMix64 stream that
rng.words makes a block of words at a time, each word the one next64 would
return, so a seed draws the same paths as one next64 call a word would.  A
trial wins when the strategy accepts the path's last eligible prefix: a
strike kind at an eligible acting prefix with no eligible prefix after it,
a kind that arms when exactly one eligible prefix follows the arming one.
sample_uniform draws its orders through rng.below, one call a prefix, and
is the oracle simulate is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import Iterable, Sequence

from .closedform import ThresholdTable, sigma_table
from .errors import (DRAW_CAP, DepthError, IncompleteStrategyError, InvalidInputError,
                     LimitError)
from .optimizer import Game, _check_caps
from .permutations import (PatternClass, Perm, _label, _perm_str, _shifts, extend, is_eligible,
                           pattern_class, perm_from_str, perm_to_str, prefix_flattening,
                           validate_permutation)
from .rng import SplitMix64, walk_node, walks
from .tallies import Tally

KINDS = ("strike", "trigger", "positional", "threshold")


@dataclass(frozen=True, eq=False)
class Strategy:
    """A stopping rule.  Which fields apply depends on kind:

    strike      members: the prefixes to stop at (ineligible full-length
                members mean a forced, losing stop)
    trigger     members: the prefixes that arm acceptance; () arms from
                the start
    positional  position: how many entries to let pass before accepting
                the next candidate (0 accepts the first entry)
    threshold   mode ("strike" or "trigger"), sigma, and pattern_class,
                the class whose game it plays: it reads the saturated
                count off a prefix's label in that class
    """

    kind: str
    members: frozenset[Perm] | None = None
    position: int | None = None
    mode: str | None = None
    sigma: ThresholdTable | None = None
    pattern_class: PatternClass | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("strike", "trigger") and self.members is None:
            raise InvalidInputError(f"a {self.kind} strategy needs members")
        if self.kind == "positional" and (self.position is None or self.position < 0):
            raise InvalidInputError("a positional strategy needs position >= 0")
        if self.kind == "threshold" and (self.mode not in ("strike", "trigger")
                                         or self.sigma is None or self.pattern_class is None):
            raise InvalidInputError("a threshold strategy needs mode, sigma and pattern_class")

    def describe(self) -> str:
        if self.kind == "strike" or self.kind == "trigger":
            return f"{self.kind}:{members_str(member_names(self.members))}"
        if self.kind == "positional":
            return f"positional:{self.position}"
        return f"threshold:{self.mode}"

    @property
    def strikes(self) -> bool:
        """Whether the rule accepts where it fires, rather than arming
        acceptance of the next candidate."""
        return self.kind == "strike" or (self.kind == "threshold" and self.mode == "strike")


def member_names(members: Iterable[Perm] | Iterable[bytes]) -> list[str]:
    """A set's members as descriptors name them, shortest first, in order.
    The members are all tuples or all bytes, one byte an entry, as
    OptimalResult.stops gives them."""
    # within one length, bytes sort as their tuples do, and a stable sort
    # by length follows; each member gives way to its name in place, so the
    # members and their names are never all held at once
    ordered = sorted(members)
    ordered.sort(key=len)
    for i, p in enumerate(ordered):
        ordered[i] = "null" if not p else _perm_str(p)
    return ordered


def members_str(names: Sequence[str]) -> str:
    """The {...} list parse_strategy reads back: split by ";" once a member
    is written with commas (rank >= 10), by "," otherwise."""
    return "{" + (";" if any("," in name for name in names) else ",").join(names) + "}"


@dataclass(frozen=True)
class Decision:
    """One step of play: what was seen and what the strategy did."""

    position: int
    prefix: Perm
    eligible: bool
    action: str  # "accept", "arm", or "pass"


@dataclass(frozen=True)
class PlayTrace:
    stop_position: int
    stopped_value_is_max: bool
    decisions: tuple[Decision, ...]


def _check_rank(s: Strategy, cl: PatternClass | None, n: int) -> None:
    """Refuse a strategy built for another rank or, given cl, another class."""
    if s.rank is not None and s.rank != n:
        raise InvalidInputError(f"strategy was built for rank {s.rank}, not rank {n}")
    if cl is not None and s.pattern_class not in (None, cl):
        raise InvalidInputError(
            f"strategy was built for class {s.pattern_class.name}, not class {cl.name}"
        )
    if s.kind == "threshold" and s.sigma.depth < n:
        raise DepthError(f"threshold table depth {s.sigma.depth} < rank {n}")


def _fires(s: Strategy, n: int, k: int, label: int | None, eligible: bool,
           prefix: Perm | bytes | None) -> bool:
    """Does s act on this size-k prefix of a rank-n order?  Strike kinds
    accept there (a threshold only on a candidate); the others arm.  A set
    reads the prefix itself, in the form its members take (tuples in play,
    bytes in the walk table), a threshold only the prefix's label in its
    class, the others neither."""
    if s.kind == "positional":
        return k == s.position
    if s.kind != "threshold":
        return prefix in s.members
    if not k:
        # the empty prefix saturates no value and every sigma entry is a
        # column >= 1, so a threshold never fires there (sigma(n) may lie
        # past the table's depth)
        return False
    bound = s.sigma.get(n - k)
    if bound is None or (s.mode == "strike" and not eligible):
        # an unresolved bound (None) exceeds every count reachable at a
        # rank within the table's depth
        return False
    # the saturated count is the free sites, the label's clear bits, less
    # one: so in Av(321), and West's isomorphism onto Av(312) keeps every
    # prefix's child count (West, Discrete Math. 146 (1995))
    return k - label.bit_count() >= bound


def play(s: Strategy, pi: Sequence[int]) -> PlayTrace:
    """Run the strategy over one full interview order.

    The order is scanned left to right; only flattened prefixes (and, for a
    threshold, their labels in its class) are ever consulted.  A strike-kind
    strategy whose rule never fires on an order raises
    IncompleteStrategyError; trigger kinds that never accept lose by forced
    stop at the last position.
    """
    order = validate_permutation(pi)
    n = len(order)
    if n == 0:
        raise InvalidInputError("cannot play the empty order")
    _check_rank(s, None, n)
    cl = s.pattern_class
    if cl is not None and not cl.is_member(order):
        raise InvalidInputError(f"{perm_to_str(order)} is not in class {cl.name}")
    decisions: list[Decision] = []
    armed = False
    # kinds that arm read the empty prefix too: it may already arm them
    for k in range(1 if s.strikes else 0, n + 1):
        prefix = prefix_flattening(order, k) if k else ()
        eligible = is_eligible(prefix)
        label = None if cl is None else _label(prefix, cl.forbidden)
        if armed:
            action = "accept" if eligible else "pass"
        elif _fires(s, n, k, label, eligible, prefix):
            action = "accept" if s.strikes else "arm"
            armed = True
        else:
            action = "pass"
        decisions.append(Decision(k, prefix, eligible, action))
        if action == "accept":
            return PlayTrace(k, order[k - 1] == n, tuple(decisions))
    if s.kind == "strike":
        raise IncompleteStrategyError(
            f"strike set never fired on {perm_to_str(order)}; the set does not cover it"
        )
    return PlayTrace(n, False, tuple(decisions))


def threshold_strategy(mode: str, cls: PatternClass | str, n: int) -> Strategy:
    """The saturated-count threshold strategy for the 321- or 312-avoiding
    game.  Its sigma table is at least 60 deep, so strategies of nearby
    ranks share one table."""
    cl = pattern_class(cls)
    if cl.name not in ("321", "312"):
        raise InvalidInputError(
            "threshold strategies are defined for the 321- and 312-avoiding games"
        )
    if mode not in ("strike", "trigger"):
        raise InvalidInputError(f"mode must be strike or trigger, got {mode!r}")
    sigma = _cached_boundary(mode, max(n, 60))
    return Strategy(kind="threshold", mode=mode, sigma=sigma, pattern_class=cl, rank=n)


@lru_cache(maxsize=None)
def _cached_boundary(mode: str, depth: int) -> ThresholdTable:
    return sigma_table(mode, depth)


def exact_success(s: Strategy, g: Game) -> Tally:
    """Exact success tally over every order in the game g: the winning
    completions of the walk table's root (see _draw_table), out of the
    game's members.  A strike set raises IncompleteStrategyError at its
    first uncovered leaf.

    >>> from beststop import game
    >>> print(exact_success(threshold_strategy("strike", "321", 5), game("321", 5)))
    23/42
    """
    _check_rank(s, g.pattern_class, g.rank)
    _check_caps(g.pattern_class, g.rank)
    _, wins = _draw_table(s, g)
    return Tally(wins[0], g.states[0][0][0])


def sample_uniform(g: Game, rng: SplitMix64) -> Perm:
    """Draw one order uniformly from the game g by walking its prefixes down
    the game's moves (see Game.moves), from the null prefix's one child,
    the root: each child is taken with probability proportional to its
    member count, by one rng.below call a prefix."""
    _check_caps(g.pattern_class, g.rank)
    (move,), = g.moves[0].values()
    p: Perm = ()
    while True:
        c, _, total, node, _ = move
        p = extend(p, c)
        if not node:
            return p
        r = rng.below(total)
        for move in node:
            r -= move[2]
            if r < 0:
                break


def _draw_table(s: Strategy, g: Game) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """The strategy compiled on the game's moves (see Game.moves): a walk
    table whose node 0 is the root and whose node i is (weights, kids), each
    child's member total and the node it moves to, and wins, where wins[i]
    counts the winning completions below node i.

    A node is a state (k, label) and seen: once the strategy acts, the count
    of eligible prefixes from the acting one on (after it, for kinds that
    arm), 2 standing for 2 or more; a strike at an ineligible prefix has
    lost, so it starts at 2.  A leaf wins when seen ends at 1, and a node's
    wins are the sum of its kids', so one pass from the deepest node up to
    the root fills wins.  A set acts on the prefix, so until it acts its
    nodes also carry the prefix while it is shorter than the deepest
    member, as bytes (see permutations._shifts), and compare it with the
    set made bytes once per table.  A leaf a strike set leaves uncovered is
    a leaf node whose seen is still None: the set is refused at the first
    such leaf in depth-first order, which Game.first_hits names.  The
    weights are raw member totals: simulate alone turns them into
    rng.walk_node fields, so scoring meets no word limit."""
    n, moves, members, strikes = g.rank, g.moves, s.members, s.strikes
    if members is not None:  # as bytes: an entry past a byte never fires
        try:
            members = frozenset(map(bytes, members))
        except ValueError:
            members = frozenset(bytes(p) for p in members if all(0 <= v <= 255 for v in p))
        s = replace(s, members=members)
    deepest = max(map(len, members or ()), default=0)
    shift, last = _shifts(n) if deepest else (None, None)

    def enter(k: int, seen: int | None, p: bytes | None, c: int, sub: int, eligible: bool) -> tuple:
        """The node of extend(p, c), whose label is sub, from a size-k node."""
        q = None if p is None else p.translate(shift[c]) + last[c]
        if seen is not None:
            seen = min(seen + eligible, 2)
        elif _fires(s, n, k + 1, sub, eligible, q):
            seen = (1 if eligible else 2) if strikes else 0
        return sub, seen, q if seen is None and k + 1 < deepest else None

    # nodes are numbered as they are found, depth by depth down from the
    # root; ids[k] maps a size-k node's (label, seen, prefix) to its number
    armed = None if strikes or not _fires(s, n, 0, 0, False, b"") else 0
    (c, sub, _, _, eligible), = moves[0][0]
    root = enter(0, armed, b"" if deepest else None, c, sub, eligible)
    nodes = [(1, *root)]
    ids: list[dict[tuple, int]] = [{} for _ in range(n + 2)]
    ids[1][root] = 0
    table = []
    for k, label, seen, p in nodes:  # nodes grows as the loop finds them
        weights, kids, found = [], [], ids[k + 1]
        for c, sub, total, _, eligible in moves[k][label]:
            node = enter(k, seen, p, c, sub, eligible)
            if (i := found.get(node)) is None:
                i = found[node] = len(nodes)
                nodes.append((k + 1, *node))
            weights.append(total)
            kids.append(i)
        table.append((weights, kids))
    if s.kind == "strike" and any(k == n and seen is None for k, _, seen, _ in nodes):
        leaf = next(p for p, _, _, _, fired in g.first_hits(lambda p, *_: p in members,
                                                             start=(1,)) if not fired)
        raise IncompleteStrategyError(
            f"strike set never fired on {perm_to_str(leaf)}; the set does not cover it"
        )
    # nodes are numbered depth by depth, so each node's kids come after it
    wins = [0] * len(table)
    for i in range(len(table) - 1, -1, -1):
        kids = table[i][1]
        wins[i] = sum(map(wins.__getitem__, kids)) if kids else int(nodes[i][2] == 1)
    return table, wins


@dataclass(frozen=True)
class SimReport:
    trials: int
    wins: int
    estimate: Fraction
    std_error: float
    seed: int


def _check_trials(trials: int, n: int) -> None:
    """Refuse a simulation of fewer than one trial, or of more than DRAW_CAP
    draws (trials times the rank n), before any work."""
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if trials * n > DRAW_CAP:
        raise LimitError(f"{trials} trials at rank {n} draw {trials * n} prefixes, "
                         f"over the draw cap {DRAW_CAP}")


def simulate(s: Strategy, g: Game, trials: int, seed: int = 0) -> SimReport:
    """Monte Carlo estimate of the strategy's success probability over
    uniformly random orders from the game g.

    Each trial draws the order sample_uniform would draw from the same
    generator, by the same words, but as one path through the walk table
    built once per call (see _draw_table), and wins as the path's end node
    does: a node per state (k, label) and the strategy's count seen, at
    most 4 per state (85 nodes for the 321 threshold at rank 10, 1,340 for
    the 312 one), and for a set one more per prefix shorter than its
    deepest member on which it has not yet acted.  The trials read one
    rng.words(seed) stream in turn, made a block of words at a time:
    SplitMix64's word i is a function of seed + i*gamma alone, so the block
    holds exactly the words SplitMix64(seed).next64() would return, in
    order.  Refused before any work past DRAW_CAP (see _check_trials)."""
    _check_trials(trials, g.rank)
    _check_rank(s, g.pattern_class, g.rank)
    _check_caps(g.pattern_class, g.rank)
    table, won = _draw_table(s, g)
    # a walk ends at a leaf or where one member is left: its wins are 0 or 1;
    # one word covers every total, since the tree's caps keep it at most
    # 1,000,000 for a class of known size and 12! < 2**64 for any class
    ends = walks([walk_node(*node) for node in table], seed, trials)
    wins = sum(map(won.__getitem__, ends))
    est = Fraction(wins, trials)
    p = wins / trials
    return SimReport(
        trials=trials,
        wins=wins,
        estimate=est,
        std_error=sqrt(max(p * (1.0 - p), 0.0) / trials),
        seed=seed,
    )


def parse_strategy(text: str, cls: PatternClass | str, n: int) -> Strategy:
    """Parse a strategy descriptor.

    Forms: "strike:{12,213,3124}", "trigger:{null,1,21}",
    "trigger:{size=2}", "positional:3", "threshold:strike".  A member list
    holding a ";" is split there (rank >= 10 prefixes hold commas); one
    without, whose commas split off a "10", is a single such member.

    >>> parse_strategy("positional:1", "123", 4).describe()
    'positional:1'
    """
    cl = pattern_class(cls)
    body = text.strip()
    if ":" not in body:
        raise InvalidInputError(f"descriptor needs a kind prefix: {text!r}")
    kind, _, rest = body.partition(":")
    kind = kind.strip()
    rest = rest.strip()

    if kind in ("strike", "trigger"):
        if not (rest.startswith("{") and rest.endswith("}")):
            raise InvalidInputError(f"{kind} descriptor needs a {{...}} member list")
        inner = rest[1:-1].strip()
        if kind == "trigger" and inner.startswith("size="):
            try:
                size = int(inner[5:])
            except ValueError:
                raise InvalidInputError(f"bad size in {text!r}") from None
            if not 0 <= size <= n:
                raise InvalidInputError(f"size {size} out of range 0..{n}")
            return Strategy(kind="positional", position=size, rank=n)
        if not inner:
            raise InvalidInputError(f"{kind} descriptor has no members: {text!r}")
        tokens = inner.split(";" if ";" in inner else ",")
        if ";" not in inner and "10" in map(str.strip, tokens):
            # a lone member written with commas: no digit-form member reads "10"
            tokens = [inner]
        members = set()
        for token in tokens:
            token = token.strip()
            if token == "null":
                if kind == "strike":
                    raise InvalidInputError("a strike set cannot contain the empty prefix")
                members.add(())
                continue
            p = perm_from_str(token)
            if not cl.is_member(p):
                raise InvalidInputError(
                    f"{perm_to_str(p)} is not a prefix of the {cl.name} game"
                )
            if len(p) > n:
                raise InvalidInputError(f"{perm_to_str(p)} is longer than rank {n}")
            members.add(p)
        return Strategy(kind=kind, members=frozenset(members), rank=n)

    if kind == "positional":
        try:
            position = int(rest)
        except ValueError:
            raise InvalidInputError(f"bad position in {text!r}") from None
        if not 0 <= position <= n:
            raise InvalidInputError(f"position {position} out of range 0..{n}")
        return Strategy(kind="positional", position=position, rank=n)

    if kind == "threshold":
        return threshold_strategy(rest, cl, n)

    raise InvalidInputError(f"unknown strategy kind {kind!r}")
