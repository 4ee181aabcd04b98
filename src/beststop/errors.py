"""Exception taxonomy shared by every module in the package."""
from __future__ import annotations


class BestStopError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BestStopError):
    """An argument violates a precondition (bad value, wrong class, non-antichain)."""


class NotFoundError(BestStopError):
    """A requested prefix is not a node of the game's prefix tree."""


class LimitError(BestStopError):
    """A configurable resource cap would be exceeded."""


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
