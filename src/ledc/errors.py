"""Exception types shared across the package.

Every error raised by the library derives from LedcError so callers can
catch one base class. The CLI maps subclasses onto its exit codes.
"""


class LedcError(Exception):
    """Base class for all errors raised by this package."""


# ---------- field ----------

class NotPrime(LedcError):
    """Field order is not a prime number."""


# ---------- linalg ----------

class Inconsistent(LedcError):
    """Linear system has no solution."""


class Underdetermined(LedcError):
    """Linear system does not pin down every unknown."""


class DimensionMismatch(LedcError):
    """Operand shapes are incompatible."""


# ---------- locality ----------

class CoverageGap(LedcError):
    """Some index in the declared range is covered by no group."""


class OverlapN(LedcError):
    """Coded-position groups must not overlap."""


class GroupTooSmall(LedcError):
    """A group has fewer coded positions than data symbols (n_i < k_i)."""


class TooManyGroups(LedcError):
    """Group count exceeds the enumeration cap."""


class PreconditionViolated(LedcError):
    """Input violates a stated hypothesis of the requested operation."""


# ---------- code ----------

class NotEnoughSymbols(LedcError):
    """Fewer observed symbols than needed to decode."""


class PositionsOutsideGroup(LedcError):
    """Observed positions fall outside the requested group."""


class SingularSubmatrix(LedcError):
    """A local submatrix that must be invertible is singular.

    This signals a broken code invariant (the local MDS property), not a
    user input error.
    """


class SupportViolation(LedcError):
    """An observed position depends on data outside its group, against the support pattern."""


class UnrecoverableErasurePattern(LedcError):
    """Surviving coded positions do not determine the data."""


class TooLarge(LedcError):
    """Requested computation exceeds the enumeration budget."""


class DistanceDisagreement(LedcError):
    """The two minimum-distance algorithms disagree: a library defect."""


# ---------- construct ----------

class FieldTooSmall(LedcError):
    """Field order below the construction's requirement."""


class NotPrimitive(LedcError):
    """Supplied element does not generate the multiplicative group."""


class ExhaustedAttempts(LedcError):
    """Random search gave up; carries the best locally MDS code, if any."""

    def __init__(self, message, best_code=None, best_distance=0):
        super().__init__(message)
        self.best_code = best_code
        self.best_distance = best_distance
