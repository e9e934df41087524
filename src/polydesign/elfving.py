"""Independent optimality certification of candidate designs.

A design is optimal for estimating coefficient p exactly when some
certificate polynomial P with zero intercept satisfies

  (1) |P(x)| <= 1 on [-1, 1],
  (2) |P(x_i)| = 1 at every support point,
  (3) d_p = h * sum_i g(x_i) w_i P(x_i) for some constant h,

and then the optimal variance is h**2. Condition (3) is written in the
basis g_j = T_j - T_j(0) of :mod:`polydesign.polynomial`, in which the
certificate is stored too: g(x) = A f(x) with f(x) = (x, ..., x**n), and
d_p = A e_p holds the coefficients of x**p in T_1..T_n, so it is the
monomial identity e_p = h * sum_i f(x_i) w_i P(x_i) multiplied by A. The
verifier checks all three conditions numerically, computes the variance
both from h and from the least-squares criterion
:func:`~polydesign.design.phi_c`, and reports every measurement so a
failed verdict can be attributed to a specific condition.

Certificates are compared at sup-norm 1: condition (1) is checked on the
certificate exactly as given (so an over-scaled certificate is detected),
while conditions (2) and (3) are evaluated after dividing by its maximum
on [-1, 1], which accepts harmless down-scalings such as monic variants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .design import CONDITION_TOL, Design, DesignProblem, _certificate_identity, _phi_c
from .errors import InvalidCertificateError
from .polynomial import Polynomial, intercept_free_vander, power_coefficients

#: relative tolerance between the two variance computations
VARIANCE_RTOL = 1e-8


def check_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite non-negative real, not a bool."""
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


@dataclass(frozen=True, eq=False)
class ElfvingReport:
    """Outcome of one verification run.

    ``verdict`` is True iff conditions (1) and (2) hold, the condition (3)
    residual is within tolerance, and ``variances_agree``: both variance
    computations are finite and within ``VARIANCE_RTOL`` of each other,
    relative to ``variance_matrix``, a tolerance ``condition_tol`` does not
    change.
    """

    condition1_ok: bool
    condition1_max: float
    condition2_ok: bool
    condition3_residual: float
    h: float
    variance_formula: float
    variance_matrix: float
    variances_agree: bool
    verdict: bool


def verify(
    design: Design,
    problem: DesignProblem,
    certificate: Polynomial,
    *,
    condition_tol: float = CONDITION_TOL,
) -> ElfvingReport:
    """Check the three certificate conditions and both variance paths.

    Condition (1) takes the maximum of |P| over
    :meth:`~polydesign.polynomial.Polynomial.peaks` and the support, which
    is its supremum on [-1, 1]; condition (2) reuses the values at the
    support points. Condition (3) is
    :func:`~polydesign.design.certificate_identity`: h is solved from the
    largest entry of d_p, and the residual over all n coordinates is taken
    relative to max|d_p|. ``variance_matrix`` is
    :func:`~polydesign.design.phi_c` of the unit vector e_p. Both run on one
    table of basis values at the support and one d_p. An inadmissible design
    yields ``variance_matrix = inf`` and a False verdict.

    The certificate must lie in the model's span: a nonzero coefficient
    beyond g_n raises :class:`InvalidCertificateError` (trailing zeros are
    allowed); its intercept is zero by construction. A certificate that is
    identically zero or whose values overflow the double range raises it
    too. A ``condition_tol`` that is no real number, a bool, non-finite or
    negative raises ``ValueError``.
    """
    check_tolerance(condition_tol)
    if certificate.degree > problem.n:
        raise InvalidCertificateError(
            f"certificate has degree {certificate.degree}, above the model degree {problem.n}"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        support_raw = certificate(design.support)
        peak_raw = certificate.peaks()[1]
    scale = float(np.maximum(np.abs(peak_raw).max(), np.abs(support_raw).max()))
    if scale == 0.0:
        raise InvalidCertificateError("certificate is identically zero")
    if not math.isfinite(scale):
        raise InvalidCertificateError("certificate values overflow on [-1, 1]")
    condition1_ok = scale <= 1.0 + condition_tol

    support_vals = support_raw / scale
    condition2_ok = bool(np.abs(np.abs(support_vals) - 1.0).max() <= condition_tol)

    g = intercept_free_vander(design.support, problem.n)
    d = power_coefficients(problem.n, problem.p)
    variance_matrix = _phi_c(g, design.weights, d)

    h, condition3_residual = _certificate_identity(g, design.weights, support_vals, d)
    variance_formula = h * h

    variances_agree = (
        math.isfinite(variance_matrix)
        and abs(variance_formula - variance_matrix) <= VARIANCE_RTOL * variance_matrix
    )
    verdict = (condition1_ok and condition2_ok and condition3_residual <= condition_tol
               and variances_agree)
    return ElfvingReport(
        condition1_ok=condition1_ok,
        condition1_max=scale,
        condition2_ok=condition2_ok,
        condition3_residual=condition3_residual,
        h=h,
        variance_formula=variance_formula,
        variance_matrix=variance_matrix,
        variances_agree=bool(variances_agree),
        verdict=bool(verdict),
    )
