"""Exception types raised across the package.

Every class also derives from a builtin (ValueError / ArithmeticError /
RuntimeError), so callers that do not care about the distinction can catch
the builtin.
"""


class PolydesignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNodesError(PolydesignError, ValueError):
    """Interpolation nodes are not finite, not distinct or contain zero."""


class InvalidOrderError(PolydesignError, ValueError):
    """Point-family order k is out of range."""


class InvalidDegreeError(PolydesignError, ValueError):
    """Model degree is out of range."""


class InvalidDesignError(PolydesignError, ValueError):
    """Design violates its invariants (weights, support ordering, bounds)."""


class InvalidProblemError(PolydesignError, ValueError):
    """Coefficient index p is not in 1..n, or n < 1."""


class InvalidCertificateError(PolydesignError, ValueError):
    """Certificate polynomial has a nonzero intercept or is identically zero."""


class DegenerateCoefficientError(PolydesignError, ArithmeticError):
    """A basis-polynomial coefficient vanished; the support/index pair is
    outside the closed-form solver's guarantee."""


class NumericalDegeneracyError(PolydesignError, ArithmeticError):
    """An internal consistency check failed (singular system, sign pattern),
    or a coefficient of x**p left the double range."""


class OracleFailureError(PolydesignError, RuntimeError):
    """The linear-programming oracle did not terminate with an optimum."""


class DocumentError(PolydesignError, ValueError):
    """A design document or design file could not be parsed."""
