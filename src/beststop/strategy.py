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
applies it prefix by prefix to one order.  exact_success and simulate find
where the strategy first acts with one lookup, prefixtree.frontier under
the rule: the one sums those nodes' win counts, the other walks random
root-to-leaf paths and decides each trial as its path is drawn.  A trial
wins when the strategy accepts the path's last eligible node: a strike
kind at an eligible acting node with no eligible node after it, a kind
that arms when exactly one eligible node follows the arming node.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import Iterable, Iterator, Mapping, Sequence

from .closedform import ThresholdTable, continuation_triangle, optimal_boundary
from .errors import (
    DepthError,
    IncompleteStrategyError,
    InvalidInputError,
)
from .permutations import (
    PatternClass,
    Perm,
    _perm_str,
    is_eligible,
    pattern_class,
    perm_from_str,
    perm_to_str,
    prefix_flattening,
    validate_permutation,
    value_saturated_count,
)
from .prefixtree import PrefixTree, TreeNode, cached_tree, frontier
from .rng import SplitMix64
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
    threshold   mode ("strike" or "trigger"), sigma, and optionally
                transport, a prefix relabeling applied before the
                saturated-count statistic is read off
    """

    kind: str
    members: frozenset[Perm] | None = None
    position: int | None = None
    mode: str | None = None
    sigma: ThresholdTable | None = None
    transport: Mapping[Perm, Perm] | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("strike", "trigger") and self.members is None:
            raise InvalidInputError(f"a {self.kind} strategy needs members")
        if self.kind == "positional" and (self.position is None or self.position < 0):
            raise InvalidInputError("a positional strategy needs position >= 0")
        if self.kind == "threshold" and (self.mode not in ("strike", "trigger") or self.sigma is None):
            raise InvalidInputError("a threshold strategy needs mode and sigma")

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


def member_names(members: Iterable[Perm]) -> list[str]:
    """A set's members as descriptors name them, shortest first, in order."""
    # two stable sorts give the (size, prefix) order with no key tuples
    ordered = sorted(members)
    ordered.sort(key=len)
    return ["null" if p == () else _perm_str(p) for p in ordered]


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


def _check_rank(s: Strategy, n: int) -> None:
    if s.rank is not None and s.rank != n:
        raise InvalidInputError(f"strategy was built for rank {s.rank}, not rank {n}")
    if s.kind == "threshold" and s.sigma.depth < n:
        raise DepthError(f"threshold table depth {s.sigma.depth} < rank {n}")


def _fires(s: Strategy, prefix: Perm, eligible: bool, n: int) -> bool:
    """Does s act on this prefix of a rank-n order?  Strike kinds accept
    there (a threshold only on a candidate); the others arm."""
    if s.kind == "positional":
        return len(prefix) == s.position
    if s.kind != "threshold":
        return prefix in s.members
    if not prefix:
        # the empty prefix saturates no value and every sigma entry is a
        # column >= 1, so a threshold never fires there (sigma(n) may lie
        # past the table's depth)
        return False
    bound = s.sigma.get(n - len(prefix))
    if bound is None or (s.mode == "strike" and not eligible):
        # an unresolved bound (None) exceeds every count reachable at a
        # rank within the table's depth
        return False
    if s.transport is not None:
        try:
            prefix = s.transport[prefix]
        except KeyError:
            raise InvalidInputError(
                f"prefix {prefix!r} is outside this strategy's transport map"
            ) from None
    return value_saturated_count(prefix) >= bound


def play(s: Strategy, pi: Sequence[int]) -> PlayTrace:
    """Run the strategy over one full interview order.

    The order is scanned left to right; only flattened prefixes are ever
    consulted.  A strike-kind strategy whose rule never fires on an order
    raises IncompleteStrategyError; trigger kinds that never accept lose
    by forced stop at the last position.
    """
    order = validate_permutation(pi)
    n = len(order)
    if n == 0:
        raise InvalidInputError("cannot play the empty order")
    _check_rank(s, n)
    decisions: list[Decision] = []
    armed = False
    # kinds that arm read the empty prefix too: it may already arm them
    for k in range(1 if s.strikes else 0, n + 1):
        prefix = prefix_flattening(order, k) if k else ()
        eligible = is_eligible(prefix)
        if armed:
            action = "accept" if eligible else "pass"
        elif _fires(s, prefix, eligible, n):
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
    """The saturated-count threshold strategy for the 321-avoiding game,
    or its transport along the tree correspondence for the 312-avoiding
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
    transport = None
    if cl.name == "312":
        from .bijections import west_correspondence

        transport = {b: a for a, b in west_correspondence(n).items()}
    return Strategy(
        kind="threshold", mode=mode, sigma=sigma, transport=transport, rank=n
    )


@lru_cache(maxsize=None)
def _cached_boundary(mode: str, depth: int) -> ThresholdTable:
    return optimal_boundary(continuation_triangle(mode, depth))


def _acting(s: Strategy, cls: PatternClass | str, n: int) -> tuple[PrefixTree, set[TreeNode]]:
    """The rank-n tree of cls and the nodes where s first acts on it: the
    first node its rule fires on along each path from the root (from the
    null prefix, for kinds that arm).  A strike set raises
    IncompleteStrategyError at its first uncovered leaf."""
    cl = pattern_class(cls)
    _check_rank(s, n)
    tree = cached_tree(cl, n)
    acting = set()
    start = tree.root if s.strikes else tree.null
    for node, fired in frontier(start, lambda node: _fires(s, node.prefix, node.eligible, n)):
        if fired:
            acting.add(node)
        elif s.kind == "strike":
            raise IncompleteStrategyError(
                f"strike set never fired on {perm_to_str(node.prefix)}; the set does not cover it"
            )
    return tree, acting


def exact_success(s: Strategy, cls: PatternClass | str, n: int) -> Tally:
    """Exact success tally over every order in the class, read off the
    prefix tree: the strike wins (trigger wins, for kinds that arm) of
    every node where the strategy first acts.

    >>> print(exact_success(threshold_strategy("strike", "321", 5), "321", 5))
    23/42
    """
    tree, acting = _acting(s, cls, n)
    wins = sum(node.strike_wins if s.strikes else node.trigger_wins for node in acting)
    return Tally(wins, tree.total)


def _walk(tree: PrefixTree, rng: SplitMix64) -> Iterator[TreeNode]:
    """A uniform path from the root to a leaf, node by node: each child is
    taken with probability proportional to its member count."""
    node = tree.root
    yield node
    while node.children:
        r = rng.below(node.total)
        for child in node.children:
            r -= child.total
            if r < 0:
                break
        node = child
        yield node


def sample_uniform(cls: PatternClass | str, n: int, rng: SplitMix64) -> Perm:
    """Draw one order uniformly from the class by walking the prefix tree,
    weighting each child by its completion count."""
    cl = pattern_class(cls)
    for node in _walk(cached_tree(cl, n), rng):
        pass
    return node.prefix


@dataclass(frozen=True)
class SimReport:
    trials: int
    wins: int
    estimate: Fraction
    std_error: float
    seed: int


def simulate(
    s: Strategy,
    cls: PatternClass | str,
    n: int,
    trials: int,
    seed: int = 0,
) -> SimReport:
    """Monte Carlo estimate of the strategy's success probability over
    uniformly random orders from the class."""
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    tree, acting = _acting(s, cls, n)
    rng = SplitMix64(seed)
    # once the strategy acts, seen counts the eligible nodes from the acting
    # node on (after it, for kinds that arm); a strike at an ineligible node
    # has lost, so it starts past 1.  A trial wins when seen ends at 1.
    armed = 0 if tree.null in acting else None
    strikes = s.strikes
    wins = 0
    for _ in range(trials):
        seen = armed
        for node in _walk(tree, rng):
            if seen is not None:
                seen += node.eligible
            elif node in acting:
                seen = (1 if node.eligible else 2) if strikes else 0
        wins += seen == 1
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
