"""Brute-force reimplementations used as oracles.

Everything here recomputes quantities straight from the definitions with
itertools, independently of the package internals, so the two sides can
disagree loudly when one of them is wrong.  Two exceptions read the
package's trees: build_by_scan, which mirrors prefixtree.build's node order
and refusals to check the labelled build node by node, rescanning every
prefix for its children with this module's own interval scan (spans,
children_by_scan); optimize_tree, the backward induction on every node
of a built tree that the label-DAG optimizer is checked against; and
render_tree, the whole-tree output that `beststop tree` streams off the
game's walk, rendered from a built tree.  Others read a game:
score_by_first_hits, the prefix walk that the walk table's backward pass in
strategy.exact_success is checked against, and stops_by_first_hits, the
same walk's listing of an optimal set, that OptimalResult.stops's unfold by
state groups is checked against.  upsilon_by_flatten and its inverse are the
recursive definitions of the 231/132 conversions, flattening each block.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from itertools import combinations, permutations, product
from math import comb

from beststop.errors import (DEFAULT_MAX_RANK, DEFAULT_TREE_CAP, IncompleteStrategyError,
                             InvalidInputError, LimitError)
from beststop.permutations import PatternClass, extend, perm_to_str
from beststop.prefixtree import PrefixTree, TreeNode
from beststop.strategy import _fires

# name -> forbidden patterns, spelled out rather than imported
FORBIDDEN = {
    "none": (),
    "231": ((2, 3, 1),),
    "132": ((1, 3, 2),),
    "321": ((3, 2, 1),),
    "312": ((3, 1, 2),),
    "123": ((1, 2, 3),),
    "213": ((2, 1, 3),),
    # two-pattern classes whose trees lose prefixes with no completion
    "mono": ((1, 2, 3), (3, 2, 1)),
    "pair": ((1, 3, 2), (2, 1, 3)),
}


def contains(w, patt):
    """Does w contain patt as a classical pattern?"""
    m = len(patt)
    for pos in combinations(range(len(w)), m):
        vals = [w[i] for i in pos]
        if all(
            (patt[a] < patt[b]) == (vals[a] < vals[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            return True
    return False


def members(name, n):
    """All permutations of 1..n avoiding the class's forbidden patterns."""
    patts = FORBIDDEN[name]
    return [
        w
        for w in permutations(range(1, n + 1))
        if not any(contains(w, patt) for patt in patts)
    ]


def flat(seq):
    ranked = sorted(seq)
    return tuple(ranked.index(v) + 1 for v in seq)


def ltr_max_positions(w):
    out, best = [], 0
    for i, v in enumerate(w, start=1):
        if v > best:
            out.append(i)
            best = v
    return out


def value_saturated_count(p):
    """The count the threshold strategy stops on: the largest i such that
    the top i values of p are all left-to-right maxima."""
    tops = {p[j - 1] for j in ltr_max_positions(p)}
    i = 0
    while i < len(p) and len(p) - i in tops:
        i += 1
    return i


def strike_tally(p, all_members):
    """(wins, total) for stopping exactly at prefix flattening p: the win
    requires the top value to sit at position len(p)."""
    p = tuple(p)
    k = len(p)
    wins = total = 0
    for w in all_members:
        if flat(w[:k]) != p:
            continue
        total += 1
        if w[k - 1] == len(w):
            wins += 1
    return wins, total


def trigger_tally(p, all_members):
    """(wins, total) for rejecting at p and accepting the next running
    maximum.  p = () is the null prefix (accept the first entry)."""
    p = tuple(p)
    k = len(p)
    wins = total = 0
    for w in all_members:
        if k and flat(w[:k]) != p:
            continue
        total += 1
        later = [j for j in ltr_max_positions(w) if j > k]
        if later and w[later[0] - 1] == len(w):
            wins += 1
    return wins, total


def winnable(p, all_members):
    """The p-winnable members: p is their prefix flattening and the top
    value arrives exactly at position len(p)."""
    p = tuple(p)
    k = len(p)
    n = len(all_members[0])
    return [
        w for w in all_members if flat(w[:k]) == p and w[k - 1] == n
    ]


def complete_antichains(tree):
    """Every complete strike antichain of the tree, as frozensets of
    prefixes.  Exponential; only call on small trees."""

    def expand(node):
        out = [frozenset((node.prefix,))]
        if node.children:
            for pick in product(*(expand(c) for c in node.children)):
                out.append(frozenset().union(*pick))
        return out

    return expand(tree.root)


def reachable_win_sums(tree, eligible_only=False):
    """Set of win totals achievable by complete strike antichains.  With
    eligible_only, interior stops are restricted to eligible prefixes
    (leaves stay allowed: they are forced stops)."""

    def sums(node):
        out = set()
        if node.eligible or not node.children or not eligible_only:
            out.add(node.strike.wins)
        if node.children:
            acc = {0}
            for c in node.children:
                cs = sums(c)
                acc = {a + b for a in acc for b in cs}
            out |= acc
        return out

    return sums(tree.root)


def score_by_first_hits(s, g):
    """(wins, total) of the strategy s over every order in the game g: the
    strike wins (trigger wins, for kinds that arm) of the first prefix on
    each path where s acts, read off the game's states, found by the game's
    walk over prefixes from the root for strike kinds and from the null
    prefix for the others.  A strike set raises IncompleteStrategyError at
    the first leaf it leaves uncovered, in depth-first order."""
    n, states = g.rank, g.states
    hits = g.first_hits(lambda p, k, label, eligible: _fires(s, n, k, label, eligible, tuple(p)),
                        start=(1,) if s.strikes else ())
    wins = 0
    for p, k, label, eligible, fired in hits:
        if fired:
            _, z0, z1, _, _ = states[k][label]
            wins += (z0 if eligible else 0) if s.strikes else z1
        elif s.kind == "strike":
            raise IncompleteStrategyError(
                f"strike set never fired on {perm_to_str(p)}; the set does not cover it"
            )
    return wins, states[0][0][0]


def stops_by_first_hits(res):
    """The optimal set of the mode view res, as the game's pruned preorder
    walk lists it: the first prefix on each path where the stop rule holds
    (own wins strictly above the state's best below, at an eligible prefix
    for strike), or the path's leaf, as bytes, in preorder, from the root
    for strike and from the null prefix for trigger."""
    states, trigger = res.game.states, res.mode == "trigger"

    def stop(p, k, label, eligible):
        _, z0, z1, strike, below = states[k][label]
        return z1 > below if trigger else eligible and z0 > strike

    return [p for p, *_ in res.game.first_hits(stop, start=() if trigger else (1,))]


def upsilon_by_flatten(p):
    """convert_231_to_132 by its definition: keep the maximum's position,
    map the flattened blocks on either side of it, and lift the left block
    above the right one."""
    n = len(p)
    if n <= 2:
        return tuple(p)
    m = p.index(n)
    left, right = upsilon_by_flatten(flat(p[:m])), upsilon_by_flatten(flat(p[m + 1:]))
    return tuple(v + n - 1 - m for v in left) + (n,) + right


def upsilon_inverse_by_flatten(p):
    """convert_132_to_231 by its definition: as upsilon_by_flatten, but the
    left block drops back below the right one."""
    n = len(p)
    if n <= 2:
        return tuple(p)
    m = p.index(n)
    left = upsilon_inverse_by_flatten(flat(p[:m]))
    right = upsilon_inverse_by_flatten(flat(p[m + 1:]))
    return left + (n,) + tuple(v + m for v in right)


def random_eligible_antichain(tree, rng):
    """Draw an antichain of eligible prefixes by coin-flipping down the
    tree.  May be empty; completion() turns it into a full strike set."""
    picked = []

    def walk(node):
        if node.eligible and rng.below(2) < 1:
            picked.append(node.prefix)
            return
        for c in node.children:
            walk(c)

    walk(tree.root)
    return picked


def west_pairs(n, children=None):
    """The 321 -> 312 generating-tree pairing built level by level from the
    definition: the children of a prefix are its one-entry extensions that
    avoid the pattern, sorted by the new entry's value, and the lists are
    paired largest-with-largest (the new maximum) and the rest in reverse
    order.  children(p, patt) lists them; by default each extension is
    checked with contains."""

    def contained(p, patt):
        k = len(p)
        out = []
        for c in range(1, k + 2):
            q = tuple(v if v < c else v + 1 for v in p) + (c,)
            if not contains(q, patt):
                out.append(q)
        return out

    children = children or contained
    mapping = {(): ()}
    frontier = [((), ())]
    for _ in range(n):
        nxt = []
        for a, b in frontier:
            ca, cb = children(a, (3, 2, 1)), children(b, (3, 1, 2))
            assert len(ca) == len(cb), (a, b)
            m = len(ca)
            for t in range(m):
                u = m - 1 if t == m - 1 else m - 2 - t
                mapping[ca[t]] = cb[u]
                nxt.append((ca[t], cb[u]))
        frontier = nxt
    return mapping


def west_transport(n):
    """Each 312-avoiding prefix of size <= n sent to its West partner among
    the 321-avoiding ones: west_pairs inverted, with the children listed by
    children_by_scan, which reaches rank 10 in seconds."""

    def scanned(p, patt):
        return [extend(p, c) for c in children_by_scan(p, PatternClass("scan", (patt,)))]

    return {b: a for a, b in west_pairs(n, scanned).items()}


def threshold_wins(orders, mode, sigma, count):
    """Wins over orders of the threshold rule that reads count(prefix) as
    the saturated count: at the first prefix, of size k >= 1, where
    count reaches sigma(n - k) (on a candidate only, for strike), stop
    (strike) or take the next running maximum (trigger)."""
    wins = 0
    for w in orders:
        n = len(w)
        for k in range(1, n + 1):
            p = flat(w[:k])
            bound = sigma.get(n - k)
            if bound is None or (mode == "strike" and p[-1] != k) or count(p) < bound:
                continue
            if mode == "strike":
                wins += w[k - 1] == n
            else:
                later = [j for j in ltr_max_positions(w) if j > k]
                wins += bool(later) and w[later[0] - 1] == n
            break
    return wins


def triangle_by_comb(mode, max_n, frozen_rules=None, max_diag=None):
    """Continuation-triangle entries {(N, k): numerator}, swept diagonal by
    diagonal with one math.comb per stop numerator, straight from the
    formulas of the closedform module docstring:

      x(N, k)     = C(N-1, k-1) (strike) or k*C(N-1, k+1) + C(N-1, k) (trigger)
      M(N, k)     = max(entry(N, k), x(N, k)), or x(N, k) where a frozen
                    rule fires and entry(N, k) elsewhere; entry(N, N) = 0
      entry(N, k) = M(N, k+1) + sum_{c=1..k} X(N-c, k+1-c)

    with X = entry (strike) or M (trigger).  A frozen rules[i-1] fires on
    diagonal i = N - k from column rules[i-1] on (None: never); on diagonal
    0 a strike fires everywhere and a trigger nowhere."""
    entries = {}

    def x(n, k):
        if mode == "strike":
            return comb(n - 1, k - 1)
        return k * comb(n - 1, k + 1) + comb(n - 1, k)

    def entry(n, k):
        return 0 if k == n else entries[n, k]

    def fires(n, k):
        i = n - k
        if i == 0:
            return mode == "strike"
        r = frozen_rules[i - 1] if i <= len(frozen_rules) else None
        return r is not None and k >= r

    def best(n, k):
        if frozen_rules is None:
            return max(entry(n, k), x(n, k))
        return x(n, k) if fires(n, k) else entry(n, k)

    last = max_n - 1 if max_diag is None else min(max_diag, max_n - 1)
    for i in range(1, last + 1):
        below = 0  # the sum over c, whose terms all lie on diagonal i - 1
        for n in range(i + 1, max_n + 1):
            k = n - i
            below += entry(n - 1, k) if mode == "strike" else best(n - 1, k)
            entries[n, k] = best(n, k + 1) + below
    return entries


def walk_by_words(rng, table, node):
    """The node where a walk through table from node ends, drawn from rng
    one next64 word at a time with the generator stepped inline: at each
    node of total > 1, the kid below(total) picks, by the same words."""
    state, mask = rng.state, 2**64 - 1
    total, limit, cums, kids = table[node]
    while total > 1:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        if z < limit:  # else the word is rejected and the node draws again
            node = kids[bisect_right(cums, z % total)]
            total, limit, cums, kids = table[node]
    rng.state = state
    return node


def spans(perm, pattern):
    """Yield (first, last) for each entry v of perm that has an earlier
    partner u ordered like (a, b), where pattern = (a, b, r).

    A value x appended after v, with the values >= x shifted up, completes
    the pattern with u and v exactly when first <= x <= last: [1, min(u, v)]
    for r = 1, (min(u, v), max(u, v)] for r = 2 and (max(u, v), k + 1] for
    r = 3, with k = len(perm).  Keeping the earlier values sorted, each v
    needs only the partner whose interval contains all the others."""
    a, b, r = pattern
    rising = a < b
    top = len(perm) + 1
    seen = []
    for v in perm:
        pos = bisect_left(seen, v)
        # an earlier partner u with (u < v) == rising exists
        if pos > 0 if rising else pos < len(seen):
            if r == 2:
                u = seen[0] if rising else seen[-1]
            else:
                u = seen[pos - 1] if rising else seen[pos]
            lo, hi = (u, v) if rising else (v, u)
            yield ((1, lo), (lo + 1, hi), (hi + 1, top))[r - 1]
        insort(seen, v)


def children_by_scan(p, cls):
    """The values c, ascending, for which extend(p, c) stays in cls, for a
    member p (or the empty prefix): those outside every interval spans
    gives for p and a forbidden pattern."""
    k = len(p)
    hit = set()
    for rho in cls.forbidden:
        for first, last in spans(p, rho):
            hit.update(range(first, last + 1))
    return [c for c in range(1, k + 2) if c not in hit]


def build_by_scan(cls, n, cap=DEFAULT_TREE_CAP):
    """prefixtree.build as it was before the label: the children of every
    prefix come from a fresh children_by_scan of it, and each leaf is grown
    on its own.  Same tree, same node order, same refusals."""
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
    if n > DEFAULT_MAX_RANK:
        raise LimitError(
            f"rank {n} exceeds the tree cap {DEFAULT_MAX_RANK}; "
            "use the closed-form modules for deeper ranks"
        )
    known = cls.size(n)
    if known is not None and known > cap:
        raise LimitError(
            f"class {cls.name} has {known} members at rank {n}, over the cap {cap}"
        )

    kids = [[] for _ in range(n + 1)]
    strike_wins = [0] * (n + 1)
    trigger_wins = [0] * (n + 1)
    seen = 0

    def grow(p, top, second):
        nonlocal seen
        k = len(p)
        kids[k] = []
        strike_wins[k] = trigger_wins[k] = 0
        if k == n:
            seen += 1
            if seen > cap:
                raise LimitError(
                    f"tree for class {cls.name} at rank {n} exceeded cap {cap}"
                )
            total = 1
            strike_wins[top] += 1
            for s in range(second, top):
                trigger_wins[s] += 1
        else:
            total = 0
            for c in children_by_scan(p, cls):
                q = extend(p, c)
                total += grow(q, k + 1, top) if c > k else grow(q, top, second)
        if total:
            eligible = top == k
            node = TreeNode(p, eligible, strike_wins[k] if eligible else 0,
                            trigger_wins[k], total, tuple(kids[k]))
            kids[k - 1].append(node)
        return total

    total = grow((1,), 1, 0)
    if total == 0:
        raise InvalidInputError(f"class {cls.name} has no members at rank {n}")
    null = TreeNode((), False, 0, trigger_wins[0], total, tuple(kids[0]))
    return PrefixTree(pattern_class=cls, rank=n, null=null, root=null.children[0])


def render_tree(tree, as_json=False):
    """What `beststop tree` prints for a built tree: a line per node in
    preorder, indented by depth, or with as_json the nested nodes as one
    json.dumps document with indent 2."""

    def nested(node):
        return {"prefix": perm_to_str(node.prefix), "eligible": node.eligible,
                "strike": str(node.strike), "trigger": str(node.trigger),
                "children": [nested(child) for child in node.children]}

    if as_json:
        return json.dumps(nested(tree.root), indent=2) + "\n"
    return "".join(f"{'  ' * (len(node.prefix) - 1)}{perm_to_str(node.prefix)} "
                   f"{'*' if node.eligible else ' '} strike={node.strike} "
                   f"trigger={node.trigger}\n" for node in tree.nodes())


def optimize_tree(tree, use_trigger):
    """The backward induction that optimizer runs on the label DAG, run on
    every node of a built tree instead: (members, wins, best_below), with
    best_below the best wins strictly below each node (0 at a leaf).  A node
    stops when its own wins are strictly larger than its children's best
    (ties keep the deeper strategy); members is the first stopping node or
    leaf on each path."""
    best_below = {}
    chosen = set()

    def best(node):
        own = node.trigger_wins if use_trigger else node.strike_wins
        if not node.children:
            best_below[node] = 0
            return own
        below = sum(best(child) for child in node.children)
        best_below[node] = below
        if (use_trigger or node.eligible) and own > below:
            chosen.add(node)
            return own
        return below

    start = tree.null if use_trigger else tree.root
    wins = best(start)
    members = []
    stack = [start]
    while stack:
        node = stack.pop()
        if node in chosen or not node.children:
            members.append(node.prefix)
        else:
            stack.extend(node.children)
    return frozenset(members), wins, best_below
