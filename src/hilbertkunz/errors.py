"""Exception types shared across the package."""


class HilbertKunzError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(HilbertKunzError):
    """Operands live over different primes, variable lists, or orders."""


class NotAPowerOfP(HilbertKunzError):
    """A Frobenius exponent q is not a power of the active prime."""


class RankMismatch(HilbertKunzError):
    """Free-module elements of different ranks were combined."""


class OrderMismatch(HilbertKunzError):
    """A computation mixed objects built under different term orders."""


class ResourceLimit(HilbertKunzError):
    """A configured work cap or time budget was exceeded."""


class NotZeroDimensional(HilbertKunzError):
    """A length was requested for a quotient that is not finite-dimensional."""


class TooManyVariables(HilbertKunzError):
    """krull_dimension's exhaustive subset search is capped at 16 variables."""


class InsufficientSamples(HilbertKunzError):
    """An analysis step needs more Hilbert-Kunz samples than were supplied."""


class SampleMismatch(HilbertKunzError):
    """Samples disagree with the prime or are not indexed consecutively."""


class MatrixTooLarge(HilbertKunzError):
    """The oracle's dense matrix would exceed the configured cell cap."""


class ParseError(HilbertKunzError):
    """Problem-file or polynomial syntax error with a deterministic position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SemanticError(HilbertKunzError):
    """A problem file parses but describes an inconsistent computation."""
