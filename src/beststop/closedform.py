"""Closed forms for the 321-avoiding game and the continuation triangle.

For an increasing prefix of length k at rank N, the stopping value and
trigger value have explicit numerators over the ballot denominator
ballot(N, k):

  strike  numerator  C(N-1, k-1)
  trigger numerator  k*C(N-1, k+1) + C(N-1, k)

Any other 321-avoiding prefix reduces: removing the value 1 (which an
inversion forces into the prefix) maps its completions bijectively onto
those of a rank-(N-1) prefix, preserving totals, trigger wins, and strike
wins of eligible prefixes.  Iterating lands on an increasing prefix.

The continuation triangle entry (N, k) is the numerator of the best success
probability available strictly below the increasing prefix of length k.
Writing M(N, k) for the better of stopping at column k or continuing below
it, the same reduction gives

  entry(N, k) = M(N, k+1) + sum_{c=1..k} X(N-c, k+1-c)

where X is the entry itself in strike mode (the off-column children cannot
be stopped at) and X = M in trigger mode (triggering is allowed anywhere).
The inner sum telescopes along diagonals, so each diagonal is computed in
one pass from the previous one; a band of diagonals near k = N is therefore
available for very large N without touching the huge inner columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import (
    DepthError,
    FitError,
    InconsistencyError,
    InvalidInputError,
)
from .permutations import (
    Perm,
    contains_pattern,
    has_inversion,
    is_eligible,
    validate_permutation,
)
from .tallies import Tally, ballot, catalan, shifted_ballot

MODES = ("strike", "trigger")

# rules[i-1] is the value-saturation threshold that fires when N - k == i;
# None marks "never fires on this diagonal"
FrozenRules = tuple[int | None, ...]


def strike_numerator(mode_n: int, k: int) -> int:
    """Numerator of the stopping value at the increasing length-k prefix."""
    return comb(mode_n - 1, k - 1)


def trigger_numerator(n: int, k: int) -> int:
    """Numerator of the trigger value at the increasing length-k prefix
    (k = 0 is the empty prefix)."""
    return k * comb(n - 1, k + 1) + comb(n - 1, k)


def _xnum(mode: str, n: int, k: int) -> int:
    return strike_numerator(n, k) if mode == "strike" else trigger_numerator(n, k)


def strike_prob_321(p: Sequence[int], n: int) -> Tally:
    """Exact strike tally of a 321-avoiding prefix at rank n, by reduction.

    >>> str(strike_prob_321((1, 3, 2, 4), 5))
    '2/3'
    """
    perm = validate_permutation(p)
    if contains_pattern(perm, (3, 2, 1)):
        raise InvalidInputError(f"prefix {perm!r} contains the pattern 321")
    if n < len(perm):
        raise InvalidInputError(f"rank {n} is smaller than the prefix length")
    if not has_inversion(perm):
        k = len(perm)
        return Tally(strike_numerator(n, k), ballot(n, k))
    from .bijections import remove_minimum

    sub = strike_prob_321(remove_minimum(perm), n - 1)
    wins = sub.wins if is_eligible(perm) else 0
    return Tally(wins, sub.total)


def trigger_prob_321(p: Sequence[int] | None, n: int) -> Tally:
    """Exact trigger tally of a 321-avoiding prefix at rank n; None or ()
    names the empty prefix.

    >>> str(trigger_prob_321(None, 4))
    '1/14'
    """
    if p is None or len(tuple(p)) == 0:
        return Tally(trigger_numerator(n, 0), ballot(n, 0))
    perm = validate_permutation(p)
    if contains_pattern(perm, (3, 2, 1)):
        raise InvalidInputError(f"prefix {perm!r} contains the pattern 321")
    if n < len(perm):
        raise InvalidInputError(f"rank {n} is smaller than the prefix length")
    if not has_inversion(perm):
        k = len(perm)
        return Tally(trigger_numerator(n, k), ballot(n, k))
    from .bijections import remove_minimum

    return trigger_prob_321(remove_minimum(perm), n - 1)


@dataclass(eq=False)
class ContinuationTriangle:
    """Numerators of best-continuation values below increasing prefixes.

    entries[(N, k)] holds the numerator for 1 <= k <= N - 1 wherever the
    diagonal N - k was computed; the k = N column is implicitly zero.  The
    implied denominator of entry (N, k) is ballot(N, k).
    """

    mode: str
    max_n: int
    max_diag: int | None
    frozen_rules: FrozenRules | None
    entries: dict[tuple[int, int], int] = field(repr=False)

    @property
    def diag_limit(self) -> int:
        return self.max_n - 1 if self.max_diag is None else min(self.max_diag, self.max_n - 1)

    def has(self, n: int, k: int) -> bool:
        return k == n or (n, k) in self.entries

    def entry(self, n: int, k: int) -> int:
        if not 1 <= k <= n <= self.max_n:
            raise InvalidInputError(f"entry ({n}, {k}) out of range")
        if k == n:
            return 0
        try:
            return self.entries[(n, k)]
        except KeyError:
            raise DepthError(
                f"entry ({n}, {k}) lies outside the computed band "
                f"(max_n={self.max_n}, max_diag={self.max_diag})"
            ) from None

    def stop_numerator(self, n: int, k: int) -> int:
        return _xnum(self.mode, n, k)

    def is_optimal(self, n: int, k: int) -> bool:
        """Stopping at the increasing length-k prefix achieves the best
        value available there.  A tie counts as optimal, but a stop that
        can never win (numerator zero) does not."""
        x = self.stop_numerator(n, k)
        return x > 0 and x >= self.entry(n, k)

    def value(self, n: int, k: int) -> Tally:
        """Best value at and below column k, over the ballot denominator."""
        num = max(self.entry(n, k), self.stop_numerator(n, k))
        return Tally(num, ballot(n, k))

    def row(self, n: int) -> tuple[int, ...]:
        """Entries (n, 1) .. (n, n-1); requires the full row."""
        if n < 2 or n > self.max_n:
            raise InvalidInputError(f"row {n} out of range 2..{self.max_n}")
        if self.diag_limit < n - 1:
            raise DepthError(f"row {n} was not fully computed (band triangle)")
        return tuple(self.entries[(n, k)] for k in range(1, n))

    def leftmost_optimal(self, n: int) -> int | None:
        for k in range(1, n + 1):
            if self.has(n, k) and self.is_optimal(n, k):
                return k
        return None


def _frozen_fires(mode: str, rules: FrozenRules, n: int, k: int) -> bool:
    i = n - k
    if i == 0:
        # the forced endgame: a strike strategy always accepts an eligible
        # full prefix, a trigger at the full prefix can never win
        return mode == "strike"
    if i <= len(rules):
        r = rules[i - 1]
        return r is not None and k >= r
    return False


def continuation_triangle(
    mode: str,
    max_n: int,
    frozen_rules: FrozenRules | None = None,
    max_diag: int | None = None,
) -> ContinuationTriangle:
    """Compute the triangle for 2 <= N <= max_n.

    frozen_rules replaces the pointwise max with a fixed stopping boundary
    (the value of that specific threshold strategy, a lower bound on the
    optimum).  max_diag restricts computation to diagonals N - k <= max_diag.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if max_n < 2:
        raise InvalidInputError(f"max_n must be >= 2, got {max_n}")
    if max_diag is not None and max_diag < 1:
        raise InvalidInputError(f"max_diag must be >= 1, got {max_diag}")
    rules = tuple(frozen_rules) if frozen_rules is not None else None

    entries: dict[tuple[int, int], int] = {}

    def bval(n: int, k: int) -> int:
        return 0 if k >= n else entries[(n, k)]

    def mval(n: int, k: int) -> int:
        b = bval(n, k)
        x = _xnum(mode, n, k)
        if rules is None:
            return x if x > b else b
        return x if _frozen_fires(mode, rules, n, k) else b

    diag_cap = max_n - 1 if max_diag is None else min(max_diag, max_n - 1)
    for i in range(1, diag_cap + 1):
        d = 0
        for n in range(i + 1, max_n + 1):
            k = n - i
            d += bval(n - 1, k) if mode == "strike" else mval(n - 1, k)
            entries[(n, k)] = mval(n, k + 1) + d

    return ContinuationTriangle(
        mode=mode, max_n=max_n, max_diag=max_diag, frozen_rules=rules, entries=entries
    )


@dataclass(frozen=True)
class ThresholdTable:
    """sigma(i): the least column k at which stopping is optimal on the
    diagonal N - k == i, i.e. the value-saturation count that justifies
    stopping with i candidates still unseen.  None means the diagonal has
    no optimal entry within the computed depth."""

    mode: str
    depth: int
    values: dict[int, int | None]

    def get(self, i: int) -> int | None:
        if i < 0:
            raise InvalidInputError(f"sigma index must be >= 0, got {i}")
        try:
            return self.values[i]
        except KeyError:
            raise DepthError(
                f"sigma({i}) was not computed (table depth {self.depth})"
            ) from None


def optimal_boundary(t: ContinuationTriangle, max_i: int | None = None) -> ThresholdTable:
    """Scan each diagonal of a true (unfrozen) triangle for its first
    optimal entry.  Once stopping is optimal at (N, k) it stays optimal at
    (N+1, k+1), so the first hit determines the whole diagonal."""
    if t.frozen_rules is not None:
        raise InvalidInputError("optimal_boundary expects an unfrozen triangle")
    limit = t.diag_limit if max_i is None else min(max_i, t.diag_limit)
    values: dict[int, int | None] = {}
    for i in range(0, limit + 1):
        found = None
        for k in range(1, t.max_n - i + 1):
            if t.is_optimal(k + i, k):
                found = k
                break
        values[i] = found
    return ThresholdTable(mode=t.mode, depth=t.max_n, values=values)


@dataclass(frozen=True)
class FitResult:
    coefficients: dict[int, Fraction]
    diagonal: int
    fit_rows: tuple[int, ...]
    verified_rows: tuple[int, int]


def _solve_linear(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise FitError("singular system: no usable pivot")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def fit_shifted_ballot(
    t: ContinuationTriangle,
    diagonal: int,
    shifts: Iterable[int],
    fit_start: int,
    verify_stop: int | None = None,
    fit_column: int = 1,
) -> FitResult:
    """Express a frozen triangle as a combination of shifted ballot numbers.

    Solves for coefficients c_i with
        entry(N, fit_column) = sum_i c_i * shifted_ballot(i, N, fit_column)
    on consecutive rows starting at fit_start (the column must be deep
    enough that every shift contributes, else the system is singular), then
    verifies the combination against every entry with fit_start <= N <=
    verify_stop and k <= N - diagonal.  In that region the frozen boundary
    lies strictly outside the recurrence's reach, so triangle and
    combination both satisfy the shifted-ballot recurrence and a mismatch
    signals a real breakdown: it raises InconsistencyError naming the first
    failing entry.
    """
    if t.frozen_rules is None:
        raise InvalidInputError("fit_shifted_ballot expects a frozen-boundary triangle")
    shift_list = sorted(set(int(s) for s in shifts))
    if not shift_list:
        raise InvalidInputError("need at least one shift")
    rows = tuple(range(fit_start, fit_start + len(shift_list)))
    stop = t.max_n if verify_stop is None else verify_stop
    if rows[-1] > t.max_n or stop > t.max_n:
        raise DepthError(
            f"fit needs rows up to {max(rows[-1], stop)} but triangle stops at {t.max_n}"
        )
    if rows[0] - fit_column < shift_list[-1]:
        raise InvalidInputError(
            f"shift {shift_list[-1]} contributes nothing at "
            f"({rows[0]}, {fit_column}); start the fit deeper"
        )

    a = [
        [Fraction(shifted_ballot(i, n, fit_column)) for i in shift_list]
        for n in rows
    ]
    b = [Fraction(t.entry(n, fit_column)) for n in rows]
    coeffs = dict(zip(shift_list, _solve_linear(a, b)))

    for n in range(fit_start, stop + 1):
        for k in range(1, n - diagonal + 1):
            if not t.has(n, k) or k == n:
                continue
            combo = combination_value(coeffs, n, k)
            if combo != t.entry(n, k):
                raise InconsistencyError(
                    f"combination misses entry ({n}, {k}): "
                    f"expected {t.entry(n, k)}, combination gives {combo}"
                )
    return FitResult(
        coefficients=coeffs,
        diagonal=diagonal,
        fit_rows=rows,
        verified_rows=(fit_start, stop),
    )


def combination_value(coeffs: dict[int, Fraction], n: int, k: int) -> Fraction:
    """Evaluate a shifted-ballot combination at (n, k)."""
    return sum((c * shifted_ballot(i, n, k) for i, c in coeffs.items()), Fraction(0))


def limit_of_combination(coeffs: dict[int, Fraction]) -> Fraction:
    """Limit of (combination at (N, 1)) / catalan(N): each shifted ballot
    column contributes a factor (1/4) per shift.

    >>> limit_of_combination({1: Fraction(4), 2: Fraction(-9)})
    Fraction(7, 16)
    """
    return sum(
        (Fraction(c) * Fraction(1, 4) ** i for i, c in coeffs.items()), Fraction(0)
    )


def optimal_success_231(n: int) -> Tally:
    """Best strike value for the 231-avoiding game: catalan(n-1)/catalan(n).
    Every completion of an eligible antichain achieves it."""
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
    return Tally(catalan(n - 1), catalan(n))


def positional_success_321(n: int) -> Tally:
    """Value of the best positional strategy (wait out N - 3 candidates)
    for the 321-avoiding game, n >= 4."""
    if n < 4:
        raise InvalidInputError(f"positional_success_321 needs n >= 4, got {n}")
    num = 3 * catalan(n - 1) - 4 * catalan(n - 2) - catalan(n - 3)
    return Tally(num, catalan(n))


def optimal_success_123(n: int) -> tuple[str, Tally]:
    """Best strategy and value for the 123-avoiding game: reject the first
    candidate, then accept the next running maximum."""
    if n < 2:
        raise InvalidInputError(f"optimal_success_123 needs n >= 2, got {n}")
    return "positional:1", Tally(ballot(n, 2), catalan(n))


def optimal_success_213(n: int) -> tuple[str, Tally]:
    """Best strategy and value for the 213-avoiding game: stop at the first
    candidate (stopping at an initial ascent ties it)."""
    if n < 1:
        raise InvalidInputError(f"rank must be >= 1, got {n}")
    return "strike:{1}", Tally(catalan(n - 1), catalan(n))
