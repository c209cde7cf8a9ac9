"""Exception hierarchy for bracelab.

A class exists where a caller or a test tells it apart. The witness of a
failed check lives in the message: a validation error names the first
violating entry or triple, so the check is reproducible by hand from the
message alone. CrossCheckFailed means two computations of one answer
disagree, which is a bug; every other BraceLabError is bad input or a budget.
"""

from __future__ import annotations

import os


class BraceLabError(Exception):
    """Base class for all bracelab errors."""


class NotLatin(BraceLabError):
    """A Cayley table row or column repeats an entry."""


class NotAssociative(BraceLabError):
    pass


class NoIdentity(BraceLabError):
    pass


class NotABrace(BraceLabError):
    """A constructor produced tables that do not form a skew brace."""


class BraceLawViolated(BraceLabError):
    pass


class NotASubBrace(BraceLabError):
    pass


class BudgetExceeded(BraceLabError):
    def __init__(self, what: str, size: int, budget: int):
        super().__init__(f"{what}: size {size} exceeds budget {budget}")


def env_budget(default: int) -> int:
    """The BRACELAB_BUDGET override as a positive int, or default when unset."""
    env = os.environ.get("BRACELAB_BUDGET")
    if not env:
        return default
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise BraceLabError(f"BRACELAB_BUDGET must be a positive integer, got {env!r}")
    return budget


class NotBijective(BraceLabError):
    """The combined map (x,y) -> (sigma_x(y), tau_y(x)) collides."""


class BraidFailed(BraceLabError):
    pass


class CrossCheckFailed(BraceLabError):
    """Two independent computations of the same answer disagree, or a result
    fails a check it must pass: an implementation bug, never an input error."""


class HypothesisUnmet(BraceLabError):
    pass


class SuiteUnknown(BraceLabError):
    pass
