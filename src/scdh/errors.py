"""Exception types shared across the package."""


class ScdhError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ScdhError, ValueError):
    """Inputs whose shapes or lengths do not agree."""


class LabelSetError(ScdhError, ValueError):
    """Empty, out-of-range, or otherwise unusable label sets."""


class NonFiniteError(ScdhError, FloatingPointError):
    """NaN or infinity where a finite value is required."""


class PreconditionError(ScdhError, ValueError):
    """A documented precondition was violated (e.g. unbalanced labels)."""


class ParseError(ScdhError, ValueError):
    """Malformed or truncated input file."""


class DivergenceError(ScdhError, ArithmeticError):
    """Training produced a non-finite value: a loss (the learning rate is
    likely too high) or a Hoelder norm that overflows at a large exponent."""
