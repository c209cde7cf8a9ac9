"""Exception hierarchy for bracelab.

Validation errors carry the first violating witness so that a failed check is
reproducible by hand from the error message alone.
"""

from __future__ import annotations

import os


class BraceLabError(Exception):
    """Base class for all bracelab errors."""


class NotLatin(BraceLabError):
    """A Cayley table row or column repeats an entry."""

    def __init__(self, axis: str, index: int, pos_a: int, pos_b: int, value: int):
        self.axis = axis
        self.index = index
        self.witness = (pos_a, pos_b, value)
        super().__init__(
            f"{axis} {index} repeats value {value} at positions {pos_a} and {pos_b}"
        )


class NotAssociative(BraceLabError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})")


class NoIdentity(BraceLabError):
    pass


class NotABrace(BraceLabError):
    """A constructor produced tables that do not form a skew brace."""


class BraceLawViolated(BraceLabError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(
            f"a o (b+c) != a o b - a + a o c for (a,b,c)=({a},{b},{c})"
        )


class NotASubBrace(BraceLabError):
    pass


class NoUniqueMaximum(BraceLabError):
    """Diagnostic: the idealizer candidates have two incomparable maxima."""


class BudgetExceeded(BraceLabError):
    def __init__(self, what: str, size: int, budget: int):
        self.what = what
        self.size = size
        self.budget = budget
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

    def __init__(self, pair_a, pair_b, image):
        self.witness = (pair_a, pair_b, image)
        super().__init__(f"pairs {pair_a} and {pair_b} both map to {image}")


class BraidFailed(BraceLabError):
    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"braid relation fails on triple ({x},{y},{z})")


class InducedMapsIllDefined(BraceLabError):
    """Diagnostic: retraction representatives disagree (must not occur)."""


class AdditiveGenerationFailed(BraceLabError):
    """The addition moves do not reach the whole multiplicative closure."""


class BraceValidationFailed(BraceLabError):
    """The constructed permutation-group tables failed brace validation."""


class EquivalenceViolated(BraceLabError):
    """Multipermutation level and permutation-brace nilpotency disagree.

    Firing indicates an implementation bug, never a mathematical outcome.
    """


class CrossCheckFailed(BraceLabError):
    """Two independent computations of the same verdict disagree."""


class BadCheckpoint(BraceLabError):
    """A census checkpoint is corrupt or was written for another census."""


class BadCatalog(BraceLabError):
    """A cached catalog file cannot be read back."""


class HypothesisUnmet(BraceLabError):
    pass


class SuiteUnknown(BraceLabError):
    pass
