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

Along diagonal i = N - k the stop numerators are binomials with a fixed
lower index,

  strike   C(k+i-1, i)
  trigger  k*C(k+i-1, i-2) + C(k+i-1, i-1) = C(k+i-1, i-1)*(k*i+1)/(k+1)

so the sweep makes each diagonal's numerators as one list from the strike
list of the diagonal before: C(k+i, i+1) = sum_{j<=k} C(j+i-1, i) is a
running sum, and the trigger list scales it column by column.  The same
pass takes M as the columnwise max of the entries and those numerators,
and records sigma(i), the first column where stopping is optimal, so the
threshold table needs no second scan.  The sweep yields each diagonal in
turn and keeps only the one before, so the threshold table, a row and
entry (N, 1) are read off it in memory linear in the rows; only the
triangle itself keeps every diagonal.  Along a row the CSV steps the
numerators with C(m, j+1) = C(m, j)*(m-j)/(j+1) instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, islice
from math import comb
from operator import add, floordiv, ge, mul
from typing import Iterable, Iterator, Sequence

from .errors import (
    TRIANGLE_CAP,
    DepthError,
    FitError,
    InconsistencyError,
    InvalidInputError,
    LimitError,
)
from .permutations import (
    Perm,
    contains_pattern,
    has_inversion,
    is_eligible,
    validate_permutation,
)
from .tallies import Tally, ballot, ballot_row, catalan, shifted_ballot

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


def _numerator_diagonals(mode: str, max_n: int) -> Iterator[list[int]]:
    """Stop numerators down diagonals i = 1, 2, ... of a max_n-row
    triangle, one list per diagonal: x(k + i, k) for k = 1 .. max_n - i.
    Each list is made from the strike list of the diagonal before."""
    row = [1] * max_n  # C(k+i-1, i) down diagonal i = 0
    for i in count(1):
        if mode == "strike":
            row = list(accumulate(islice(row, len(row) - 1)))
            yield row
        else:  # C(k+i-1, i-1), the strike numerator at (k+i, k+1), times (k*i+1)/(k+1)
            yield list(map(floordiv, map(mul, islice(row, 1, None), count(i + 1, i)), count(2)))
            row = list(accumulate(islice(row, len(row) - 1)))


def _row_numerators(mode: str, n: int, k: int) -> Iterator[int]:
    """Stop numerators x(n, k), x(n, k+1), ... along row n, each stepped
    from the one before."""
    if mode == "strike":
        c = comb(n - 1, k - 1)
        while True:
            yield c
            c = c * (n - k) // k
            k += 1
    else:
        a, b = comb(n - 1, k + 1), comb(n - 1, k)
        while True:
            yield k * a + b
            a, b = a * (n - k - 2) // (k + 2), a
            k += 1


def _reduce_321(p: Sequence[int], n: int) -> tuple[int, int, bool]:
    """Remove the minimum from the 321-avoiding prefix p until it is
    increasing: its length k then, the rank reached, and whether every
    prefix along the way was eligible."""
    perm = validate_permutation(p)
    if contains_pattern(perm, (3, 2, 1)):
        raise InvalidInputError(f"prefix {perm!r} contains the pattern 321")
    if n < len(perm):
        raise InvalidInputError(f"rank {n} is smaller than the prefix length")
    from .bijections import remove_minimum

    eligible = True
    while has_inversion(perm):
        eligible = eligible and is_eligible(perm)
        perm = remove_minimum(perm)
        n -= 1
    return len(perm), n, eligible


def strike_prob_321(p: Sequence[int], n: int) -> Tally:
    """Exact strike tally of a 321-avoiding prefix at rank n, by reduction.

    >>> str(strike_prob_321((1, 3, 2, 4), 5))
    '2/3'
    """
    k, m, eligible = _reduce_321(p, n)
    return Tally(strike_numerator(m, k) if eligible else 0, ballot(m, k))


def trigger_prob_321(p: Sequence[int] | None, n: int) -> Tally:
    """Exact trigger tally of a 321-avoiding prefix at rank n; None or ()
    names the empty prefix.

    >>> str(trigger_prob_321(None, 4))
    '1/14'
    """
    if p is None or len(tuple(p)) == 0:
        return Tally(trigger_numerator(n, 0), ballot(n, 0))
    k, m, _ = _reduce_321(p, n)
    return Tally(trigger_numerator(m, k), ballot(m, k))


@dataclass(eq=False)
class ContinuationTriangle:
    """Numerators of best-continuation values below increasing prefixes.

    diags[i - 1] holds diagonal i = N - k for 1 <= i <= diag_limit, indexed
    by column: diags[i - 1][k - 1] is the numerator at (k + i, k).  The
    k = N column (diagonal 0) is implicitly zero.  The implied denominator
    of entry (N, k) is ballot(N, k).  entries maps (N, k) to the same
    numerators, built on the first read.  sigma[i] is the first column
    where stopping is optimal on diagonal i, for 0 <= i <= diag_limit, or
    None where no column is; the sweep records it for unfrozen triangles
    only (sigma is None for a frozen one).
    """

    mode: str
    max_n: int
    max_diag: int | None
    frozen_rules: FrozenRules | None
    diags: list[list[int]] = field(repr=False)
    sigma: list[int | None] | None = field(repr=False)

    @property
    def diag_limit(self) -> int:
        return self.max_n - 1 if self.max_diag is None else min(self.max_diag, self.max_n - 1)

    @cached_property
    def entries(self) -> dict[tuple[int, int], int]:
        """(N, k) -> numerator over the computed diagonals, diagonal by
        diagonal; built on the first read."""
        return {(k + i, k): e for i, diag in enumerate(self.diags, 1)
                for k, e in enumerate(diag, 1)}

    def has(self, n: int, k: int) -> bool:
        return k == n or (1 <= k < n <= self.max_n and n - k <= self.diag_limit)

    def entry(self, n: int, k: int) -> int:
        if not 1 <= k <= n <= self.max_n:
            raise InvalidInputError(f"entry ({n}, {k}) out of range")
        if k == n:
            return 0
        if n - k > self.diag_limit:
            raise DepthError(
                f"entry ({n}, {k}) lies outside the computed band "
                f"(max_n={self.max_n}, max_diag={self.max_diag})"
            )
        return self.diags[n - k - 1][k - 1]

    def stop_numerator(self, n: int, k: int) -> int:
        return _xnum(self.mode, n, k)

    def is_optimal(self, n: int, k: int) -> bool:
        """Stopping at the increasing length-k prefix achieves the best
        value available there.  A tie counts as optimal, but a stop that
        can never win (numerator zero) does not."""
        x = self.stop_numerator(n, k)
        return x > 0 and x >= self.entry(n, k)

    def by_row(self) -> Iterator[tuple[int, int, int, int, bool]]:
        """(N, k, entry, ballot(N, k), is_optimal(N, k)) for every computed
        entry, row by row with k ascending.  The stop numerators and the
        ballots are stepped along each row, with no binomial per entry."""
        for n in range(2, self.max_n + 1):
            k0 = max(1, n - self.diag_limit)
            for k, x, d in zip(range(k0, n), _row_numerators(self.mode, n, k0),
                               ballot_row(n, k0)):
                e = self.diags[n - k - 1][k - 1]
                yield n, k, e, d, x > 0 and x >= e

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
        return tuple(self.diags[n - k - 1][k - 1] for k in range(1, n))


def _check_triangle(mode: str, max_n: int, max_diag: int | None = None) -> int:
    """Refuse a bad mode, row count or band, or a triangle past TRIANGLE_CAP
    entries, before any work; return the number of diagonals it computes."""
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if max_n < 2:
        raise InvalidInputError(f"max_n must be >= 2, got {max_n}")
    if max_diag is not None and max_diag < 1:
        raise InvalidInputError(f"max_diag must be >= 1, got {max_diag}")
    diag_cap = max_n - 1 if max_diag is None else min(max_diag, max_n - 1)
    size = diag_cap * max_n - diag_cap * (diag_cap + 1) // 2  # diagonal i holds max_n - i
    if size > TRIANGLE_CAP:
        raise LimitError(f"{max_n} rows over {diag_cap} diagonals hold {size} entries, "
                         f"over the triangle cap {TRIANGLE_CAP}")
    return diag_cap


def sweep(
    mode: str,
    max_n: int,
    frozen_rules: FrozenRules | None = None,
    max_diag: int | None = None,
) -> Iterator[tuple[list[int], int | None]]:
    """The triangle's diagonals i = 0, 1, ... in turn, each as (its
    entries indexed by column, sigma(i)), keeping only the diagonal before.

    Diagonal 0 is the implicit zero column k = N.  sigma(i) is the first
    column where stopping is optimal on diagonal i, or None where no column
    is; a frozen sweep gives None throughout.  The arguments and
    TRIANGLE_CAP are checked on the call, before the first diagonal.
    """
    diag_cap = _check_triangle(mode, max_n, max_diag)
    return _sweep(mode, max_n, None if frozen_rules is None else tuple(frozen_rules), diag_cap)


def _sweep(mode: str, max_n: int, rules: FrozenRules | None,
           diag_cap: int) -> Iterator[tuple[list[int], int | None]]:
    # entries and M of the previous diagonal, indexed like the diagonals;
    # both terms of the recurrence lie there: M(N, k+1) at column k+1 and
    # the running sum of X over columns 1..k.  On diagonal 0 a strike
    # always stops (an eligible full prefix) and a trigger never wins (its
    # numerators are 0)
    below = [0] * max_n
    best = [1] * max_n if mode == "strike" else below
    sigma = 1 if mode == "strike" and rules is None else None
    yield below, sigma
    for i, xs in zip(range(1, diag_cap + 1), _numerator_diagonals(mode, max_n)):
        below = list(map(add, islice(best, 1, None),
                         accumulate(below if mode == "strike" else best)))
        # the old M and numerators go before the new ones are made, so that
        # one list of each is alive at a time
        del best
        if rules is None:
            # every numerator off diagonal 0 is positive, so the first
            # column with x >= e is the first optimal stop
            sigma = next(compress(count(1), map(ge, xs, below)), None)
            best = list(map(max, below, xs))
        else:
            first = rules[i - 1] if i <= len(rules) else None  # fires from column first on
            cut = len(below) if first is None else max(first - 1, 0)
            best = below[:cut] + xs[cut:]
        del xs
        yield below, sigma


def continuation_triangle(
    mode: str,
    max_n: int,
    frozen_rules: FrozenRules | None = None,
    max_diag: int | None = None,
) -> ContinuationTriangle:
    """Compute the triangle for 2 <= N <= max_n, every diagonal of the sweep
    kept.

    frozen_rules replaces the pointwise max with a fixed stopping boundary
    (the value of that specific threshold strategy, a lower bound on the
    optimum).  max_diag restricts computation to diagonals N - k <= max_diag.
    Raises LimitError past TRIANGLE_CAP entries.
    """
    rules = None if frozen_rules is None else tuple(frozen_rules)
    diags, sigma = [], []
    for below, s in sweep(mode, max_n, rules, max_diag):
        diags.append(below)
        sigma.append(s)
    del diags[0]  # diagonal 0, the zero column, is implicit in the triangle
    return ContinuationTriangle(
        mode=mode, max_n=max_n, max_diag=max_diag, frozen_rules=rules, diags=diags,
        sigma=sigma if rules is None else None,
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


def sigma_table(mode: str, max_n: int, max_diag: int | None = None) -> ThresholdTable:
    """The threshold table of the max_n-row triangle, or of its band of
    max_diag diagonals, read off the sweep one diagonal at a time: no
    triangle is kept."""
    diagonals = sweep(mode, max_n, max_diag=max_diag)
    return ThresholdTable(mode=mode, depth=max_n, values=dict(enumerate(s for _, s in diagonals)))


def optimal_boundary(t: ContinuationTriangle) -> ThresholdTable:
    """The threshold table of a true (unfrozen) triangle, read off the
    sigma the sweep recorded.  Once stopping is optimal at (N, k) it stays
    optimal at (N+1, k+1), so each diagonal's first optimal entry
    determines the whole diagonal."""
    if t.frozen_rules is not None:
        raise InvalidInputError("optimal_boundary expects an unfrozen triangle")
    return ThresholdTable(mode=t.mode, depth=t.max_n, values=dict(enumerate(t.sigma)))


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
) -> FitResult:
    """Express a frozen triangle as a combination of shifted ballot numbers.

    Solves for coefficients c_i with
        entry(N, 1) = sum_i c_i * shifted_ballot(i, N, 1)
    on consecutive rows starting at fit_start (which must exceed every
    shift, so that each one contributes, else the system is singular), then
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
    if fit_start <= shift_list[-1]:
        raise InvalidInputError(
            f"shift {shift_list[-1]} contributes nothing at "
            f"({fit_start}, 1); start the fit deeper"
        )

    a = [[Fraction(shifted_ballot(i, n, 1)) for i in shift_list] for n in rows]
    b = [Fraction(t.entry(n, 1)) for n in rows]
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
