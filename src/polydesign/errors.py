"""Exception types raised across the package.

Every class derives from :class:`PolydesignError` and from a builtin:
ValueError for invalid input, ArithmeticError for a failed numerical
check, RuntimeError for the LP oracle. Callers that do not care about the
distinction can catch the builtin. The CLI exits with code 3 for
:class:`NumericalDegeneracyError` and :class:`OracleFailureError`, and with
code 2 for every other error of this package.
"""


class PolydesignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(PolydesignError, ValueError):
    """Point-family order k is out of range."""


class InvalidDesignError(PolydesignError, ValueError):
    """Design violates its invariants (weights, support ordering, bounds)."""


class InvalidProblemError(PolydesignError, ValueError):
    """Coefficient index p is not in 1..n, or n < 1."""


class InvalidCertificateError(PolydesignError, ValueError):
    """Certificate polynomial has a nonzero intercept or is identically zero."""


class NumericalDegeneracyError(PolydesignError, ArithmeticError):
    """An internal consistency check failed (singular system, sign pattern),
    or a coefficient of x**p left the double range."""


class OracleFailureError(PolydesignError, RuntimeError):
    """The linear-programming oracle did not terminate with an optimum."""


class DocumentError(PolydesignError, ValueError):
    """A design document or design file could not be parsed."""
