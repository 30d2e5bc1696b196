"""Exception types shared across the package.

Parse and construction problems raise ValueError subclasses so callers can
catch one family.  Horizon problems are separate: BeyondHorizon is a lookup
past the simulated range (its subclass BeyondWindow, past the diagonals a
windowed run stepped), OverflowHorizon is a run aborted by the memory budget
(it carries the last fully computed slice index).  CheckFailed is a
consistency check on a computed result that did not hold.  JSON inputs
that are not shaped as expected raise ValueError from ``json_list`` and
``json_object``.
"""

import reprlib


class RuleFileError(ValueError):
    """Base class for rule-table and rule-file problems."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RuleSyntaxError(RuleFileError):
    pass


class UnknownState(RuleFileError):
    pass


class ArityMismatch(RuleFileError):
    pass


class QuiescentViolation(RuleFileError):
    pass


class NotTotal(RuleFileError):
    pass


class NoMatch(LookupError):
    """A rule table had no matching rule for a neighbor tuple."""


class NotCoprime(ValueError):
    pass


class XNotSmallest(ValueError):
    pass


class AlphabetMismatch(ValueError):
    pass


class PlaneViolation(ValueError):
    """A state was found on the wrong diagonal plane of a counter diagram."""


class CheckFailed(RuntimeError):
    """A computed result broke a property the construction guarantees.

    Raised by explicit checks (``run(..., check=True)``, the move check in
    ``DetectProbe.signal``); unlike ``assert`` they survive ``python -O``.
    """


class BeyondHorizon(IndexError):
    """A site lookup or word extraction past the simulated horizon."""


class BeyondWindow(BeyondHorizon):
    """Read of a light-cone cell on a diagonal a windowed run did not step."""


class CoordinateOverflow(ValueError):
    """Requested horizon does not fit the packed 64-bit coordinate encoding."""


class OverflowHorizon(RuntimeError):
    """The site budget was exhausted before the requested horizon.

    ``last_slice`` is the index of the last slice that was fully computed,
    or -1 when the first slice alone is over the budget.
    """

    def __init__(self, last_slice, budget):
        self.last_slice = last_slice
        self.budget = budget
        done = (f"last complete slice is t={last_slice}" if last_slice >= 0
                else "no slice was computed")
        super().__init__(f"site budget {budget} exhausted; {done}")


def json_list(obj, what: str) -> list:
    """``obj`` if it is a JSON list; else a ValueError naming ``what``."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list, got {reprlib.repr(obj)}")
    return obj


def json_object(obj, what: str, **kinds) -> dict:
    """``obj`` if it is a JSON object whose every key k holds a ``kinds[k]``
    (an ``int`` is no bool); else a ValueError naming ``what`` and shape."""
    if not (isinstance(obj, dict) and all(
            type(obj.get(k)) is int if kind is int
            else isinstance(obj.get(k), kind) for k, kind in kinds.items())):
        shape = ", ".join(f'"{k}": {kind.__name__}'
                          for k, kind in kinds.items())
        raise ValueError(
            f"{what} must be {{{shape}}}, got {reprlib.repr(obj)}")
    return obj
