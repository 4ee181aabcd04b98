"""Exception taxonomy shared by every module in the package, and the one
table of the caps whose excess raises LimitError."""
from __future__ import annotations


class BestStopError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BestStopError):
    """An argument violates a precondition (bad value, wrong class, non-antichain)."""


class NotFoundError(BestStopError):
    """A requested prefix is not a node of the game's prefix tree."""


class LimitError(BestStopError):
    """A cap of the table below would be exceeded."""


# --- limits ------------------------------------------------------------------
#
# Every cap the package keeps, in the unit it counts.  The module that checks
# a cap imports it and raises LimitError past it before the work the cap
# bounds (exit code 2 on the command line).  Costs are of the largest input
# each cap admits, in a fresh Python 3.11 process on a 2-vCPU Xeon, stdout to
# /dev/null, as wall seconds and peak RSS.

# Rank (interview pool size) of every game a command walks, lists, scores or
# simulates (optimizer._check_caps).  At rank 12 a completed strike set,
# `solve --class 132 --n 12 --strategy 'strike:{12}'`, takes 1.2 s at
# 87 MiB, as completion holds its members as tuples; the 312 game's whole
# tree, 290,511 nodes, prints in 0.8 s as text and 1.2-1.3 s as JSON at
# 18 MiB.
DEFAULT_MAX_RANK = 12
# Members (leaves) of one game's walk, read off the sweep's member count
# before the first node (optimizer.Game.walk), and of a class of known size,
# before the sweep (optimizer._check_caps).  No walk holds the tree, so it
# bounds output time: the unrestricted game at rank 9 (362,880 members,
# 409,114 nodes) prints its whole tree in 0.8-1.5 s as 21 MB of text and in
# 1.1-1.6 s as 135 MB of JSON, each at 16-17 MiB, and a strike set completed
# on it, `strike:{12}` with 181,440 members, takes 1.1 s at 81 MiB.
DEFAULT_TREE_CAP = 1_000_000
# States, (depth, label) pairs, that one sweep may visit (optimizer.game),
# since time is what fails.  132 and 312 have 2^(k-1) labels at depth k, the
# other classes at most k: at rank 19, 524,288 states, the one sweep of both
# modes takes 2.4-3.5 s at 89 MiB; rank 20 is refused after 1.9-2.3 s.
# DEFAULT_MAX_RANK stops every command first.
DAG_STATE_CAP = 1_000_000
# Not a resource bound: every walk holds a prefix as bytes, one byte an
# entry (permutations._shifts), so no walk can step past this rank.
WALK_MAX_RANK = 255
# Entries of one continuation triangle, checked from its rows and diagonals
# before the sweep and before any cache file is read
# (closedform._check_triangle).  The largest full triangle under it, 1,414
# rows (998,991 entries), is swept a diagonal at a time: a cold `--emit
# sigma` takes 0.38-0.43 s (strike) and 0.66-0.67 s (trigger) at 18 MiB,
# `--emit row --n 1414` 0.33-0.40 s (strike) and 0.58-0.69 s (trigger) at
# 22-23 MiB, and the 321 and 312 closed forms at rank 1,414 0.38-0.40 s at
# 18 MiB; the sigma table caches a 7 KB file, read back warm in 0.05 s at
# 17 MiB.  Only the CSV keeps every diagonal: 8-10 s at 213 MiB, and a full
# 2,000-row triangle would peak at 538 MiB.
TRIANGLE_CAP = 1_000_000
# Not a resource bound: every closed form's value has catalan(n) as its
# denominator, and 7,152 is the largest n whose catalan(n) has at most 4,300
# digits, the most that CPython turns into a string by default; past it the
# value could not be printed, so `solve --formula` refuses the rank first.
FORMULA_MAX_RANK = 7152
# Draws, trials times rank, of one simulation (strategy._check_trials),
# since time is what fails, about 0.3 us a draw: at the cap the 321
# threshold at rank 12 takes 4.7-7.2 s at 16 MiB, the 312 trigger one
# 4.7-9.5 s at 21 MiB, and strike:{12} on the unrestricted rank-9 game
# 6.4-8.1 s at 81 MiB (its completion's).
DRAW_CAP = 20_000_000


class DepthError(BestStopError):
    """A table or triangle was not computed deep enough for the request."""


class DomainError(BestStopError):
    """A combinatorial map was applied outside its domain."""


class FitError(BestStopError):
    """A linear fit could not be solved (singular system)."""


class InconsistencyError(BestStopError):
    """A verification pass found a mismatch between two ways of computing a value."""


class IncompleteStrategyError(BestStopError):
    """A strike strategy never fired on some interview order."""


class UsageError(BestStopError):
    """The command line could not be understood."""
