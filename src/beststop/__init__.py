"""Exact solver and strategy toolkit for best-choice stopping games on
pattern-restricted interview orders.

The interviewer sees candidates one at a time and only ever knows the
relative ranking of those seen so far (the prefix flattening); the game is
won by stopping exactly on the best candidate overall.  This package
restricts the interview order to a permutation class given by a single
forbidden pattern of size three (or no restriction), and provides

  - optimal stopping sets by backward induction on the label DAG, one
    sweep per game that all its readers share, and exact win tallies for
    every observable prefix off one walk of it, with no tree (optimizer),
  - closed forms, recursion-based tallies, and the continuation triangle
    with its threshold boundaries (closedform),
  - playable strategies, exact evaluation, and simulation (strategy),
  - structure-preserving maps between the games (bijections),
  - a disk cache of sigma tables and a command line front end (cache, cli).

All probabilities are exact: unreduced win/total tallies backed by
integer arithmetic, convertible to Fraction.
"""
from __future__ import annotations

from .bijections import (
    TreeIsomorphismReport,
    convert_132_to_231,
    convert_231_to_132,
    remove_minimum,
    slide_max,
    verify_tree_isomorphism,
    west_correspondence,
)
from .cache import cached_boundary, load_triangle, store_triangle
from .closedform import (
    ContinuationTriangle,
    FitResult,
    ThresholdTable,
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
from .errors import (
    BestStopError,
    DepthError,
    DomainError,
    FitError,
    IncompleteStrategyError,
    InconsistencyError,
    InvalidInputError,
    LimitError,
    NotFoundError,
    UsageError,
)
from .optimizer import (Game, OptimalResult, StrikeSet, completion, game, optimal_strike_set,
                        optimal_trigger_set, successors)
from .permutations import (
    AV123,
    AV132,
    AV213,
    AV231,
    AV312,
    AV321,
    CLASSES,
    UNRESTRICTED,
    PatternClass,
    Perm,
    child_indices,
    contains_pattern,
    enumerate_class,
    extend,
    flatten,
    has_inversion,
    is_eligible,
    is_permutation,
    pattern_class,
    perm_from_str,
    perm_to_str,
    prefix_flattening,
    validate_permutation,
)
from .rng import SplitMix64
from .strategy import (
    Decision,
    PlayTrace,
    SimReport,
    Strategy,
    exact_success,
    parse_strategy,
    play,
    sample_uniform,
    simulate,
    threshold_strategy,
)
from .tallies import (
    Tally,
    ballot,
    catalan,
    cmp_as_rational,
    decimal_str,
    shifted_ballot,
)

__version__ = "0.1.0"
