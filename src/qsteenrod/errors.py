"""Exception types shared across the library."""


class QSteenrodError(Exception):
    """Base class for all library errors."""


class ZeroDenominatorError(QSteenrodError, ZeroDivisionError):
    """A rational function was built with a zero denominator."""


class PoleError(QSteenrodError, ZeroDivisionError):
    """A scalar or polynomial was specialized at a root of its denominator."""


class VariableCountMismatchError(QSteenrodError, ValueError):
    """Two operands live over different variable counts."""


class InhomogeneousError(QSteenrodError, ValueError):
    """A homogeneous input was required."""


class NonSymmetricError(QSteenrodError, ValueError):
    """A symmetric polynomial was required."""


class NonReducedWordError(QSteenrodError, ValueError):
    """A word in the elementary transpositions is not reduced."""


class InvalidFillingError(QSteenrodError, ValueError):
    """A tableau filling does not match its shape or is not a bijection."""


class NotStableError(QSteenrodError, ValueError):
    """A graded slice is not stable under the symmetric group action."""

    def __init__(self, degree: int, transposition: int):
        self.degree = degree
        self.transposition = transposition
        super().__init__(
            f"slice of degree {degree} is not stable under s_{transposition}"
        )


class ClassificationError(QSteenrodError, AssertionError):
    """An internally cross-checked closed form failed to match a computation."""
