"""Independent optimality certification of candidate designs.

A design is optimal for estimating coefficient p exactly when some
certificate polynomial P with zero intercept satisfies

  (1) |P(x)| <= 1 on [-1, 1],
  (2) |P(x_i)| = 1 at every support point,
  (3) e_p = h * sum_i f(x_i) w_i P(x_i) for some constant h,

and then the optimal variance is h**2. The verifier checks all three
conditions numerically, computes the variance both from h and from the
pseudo-inverse criterion, and reports every measurement so a failed verdict
can be attributed to a specific condition.

Certificates are compared at sup-norm 1: condition (1) is checked on the
certificate exactly as given (so an over-scaled certificate is detected),
while conditions (2) and (3) are evaluated after dividing by the observed
grid maximum, which accepts harmless down-scalings such as monic variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import Design, DesignProblem, phi_c, regression_vector
from .errors import InvalidCertificateError
from .polynomial import Polynomial

#: default evaluation grid for condition (1)
DEFAULT_GRID_SIZE = 10001

#: per-condition tolerance (bound excess, extremality, identity residual)
CONDITION_TOL = 1e-9

#: relative tolerance between the two variance computations
VARIANCE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class ElfvingReport:
    """Outcome of one verification run.

    ``verdict`` is True iff conditions (1) and (2) hold, the condition (3)
    residual is within tolerance, and both variance computations agree.
    """

    condition1_ok: bool
    condition1_max: float
    condition2_ok: bool
    condition3_residual: float
    h: float
    variance_formula: float
    variance_matrix: float
    certificate_scale: float
    verdict: bool


def verify(
    design: Design,
    problem: DesignProblem,
    certificate: Polynomial,
    grid_size: int = DEFAULT_GRID_SIZE,
    *,
    condition_tol: float = CONDITION_TOL,
) -> ElfvingReport:
    """Check the three certificate conditions and both variance paths.

    The evaluation set is a uniform grid of ``grid_size`` points on [-1, 1]
    united with the support, so condition (2) is evaluated at the exact
    support points. The constant h is solved from coordinate p of condition
    (3); the residual is then reported over all n coordinates. An
    inadmissible design yields ``variance_matrix = inf`` and a False
    verdict.

    The certificate must lie in the model's span: a nonzero coefficient
    beyond x**n raises :class:`InvalidCertificateError` (trailing zeros are
    allowed), and so does a nonzero intercept. A non-finite or negative
    ``condition_tol`` raises ``ValueError``.
    """
    if grid_size < 101:
        raise ValueError("grid_size must be at least 101")
    if not (math.isfinite(condition_tol) and condition_tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {condition_tol!r}")
    if certificate.coeffs[0] != 0.0:
        raise InvalidCertificateError("certificate must have zero intercept")
    if certificate.degree > problem.n:
        raise InvalidCertificateError(
            f"certificate has degree {certificate.degree}, above the model degree {problem.n}"
        )

    xs = np.union1d(np.linspace(-1.0, 1.0, grid_size), design.support)
    grid_max = float(np.abs(certificate(xs)).max())
    if grid_max == 0.0:
        raise InvalidCertificateError("certificate is identically zero")
    condition1_ok = grid_max <= 1.0 + condition_tol

    scale = grid_max
    support_vals = certificate(design.support) / scale
    condition2_ok = bool(np.abs(np.abs(support_vals) - 1.0).max() <= condition_tol)

    variance_matrix = phi_c(design, problem.unit_vector(), problem.n)

    moment = regression_vector(design.support, problem.n) @ (design.weights * support_vals)
    target = moment[problem.p - 1]
    if target == 0.0:
        h = math.inf
        condition3_residual = math.inf
    else:
        h = 1.0 / float(target)
        condition3_residual = float(np.abs(h * moment - problem.unit_vector()).max())
    variance_formula = h * h

    verdict = (
        condition1_ok
        and condition2_ok
        and condition3_residual <= condition_tol
        and math.isfinite(variance_matrix)
        and abs(variance_formula - variance_matrix) <= VARIANCE_RTOL * variance_matrix
    )
    return ElfvingReport(
        condition1_ok=condition1_ok,
        condition1_max=grid_max,
        condition2_ok=condition2_ok,
        condition3_residual=condition3_residual,
        h=h,
        variance_formula=variance_formula,
        variance_matrix=variance_matrix,
        certificate_scale=scale,
        verdict=bool(verdict),
    )
