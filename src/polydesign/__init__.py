"""Optimal designs for single coefficients of polynomial regression
through the origin on [-1, 1].

The library computes, in closed form, the probability measure minimizing
the variance of the least-squares estimate of one coefficient of the model
y = theta_1 x + ... + theta_n x**n, certifies optimality independently via
an equioscillating certificate polynomial, and cross-checks the optimal
variance against a linear-programming oracle over [-1, 1] or a grid on it.

>>> from polydesign import DesignProblem, solve
>>> result = solve(DesignProblem(n=3, p=3))
>>> result.variance
16.0
"""

__version__ = "0.2.0"  # set before the submodules import it

from .design import Design, DesignProblem, certificate_identity, phi_c
from .document import DesignDocument, document_from_result, parse_design_file, parse_document, render_document
from .elfving import ElfvingReport, verify
from .errors import (
    DocumentError,
    InvalidCertificateError,
    InvalidDesignError,
    InvalidOrderError,
    InvalidProblemError,
    NumericalDegeneracyError,
    OracleFailureError,
    PolydesignError,
)
from .oracle import OracleResult, elfving_lp, oracle_variance
from .points import s_points, t_points
from .polynomial import Polynomial, coefficient, e_polynomial
from .solver import OptimalResult, certificate_for, classify, solve

__all__ = [
    "Design",
    "DesignDocument",
    "DesignProblem",
    "ElfvingReport",
    "OptimalResult",
    "OracleResult",
    "Polynomial",
    "certificate_for",
    "certificate_identity",
    "classify",
    "coefficient",
    "document_from_result",
    "e_polynomial",
    "elfving_lp",
    "oracle_variance",
    "parse_design_file",
    "parse_document",
    "phi_c",
    "render_document",
    "s_points",
    "solve",
    "t_points",
    "verify",
    # errors
    "PolydesignError",
    "DocumentError",
    "InvalidCertificateError",
    "InvalidDesignError",
    "InvalidOrderError",
    "InvalidProblemError",
    "NumericalDegeneracyError",
    "OracleFailureError",
]
