"""Test-only cross-check of case A/B weights through the half-range system.

Imported by ``test_solver.py`` and acceptance criterion 6; not part of the
library, whose half-size solve runs on the positive extrema in the basis
g_j = T_j - T_j(0), not in monomials on the negative ones.
"""

import numpy as np

from polydesign import (
    Design,
    DesignProblem,
    InvalidProblemError,
    NumericalDegeneracyError,
    certificate_for,
    classify,
)


def symmetric_system_check(problem: DesignProblem, design: Design) -> bool:
    """Re-derive case A/B weights from the half-range moment system.

    The certificate identity restricted to the k negative support points
    reads F beta = e~ with F = (t_i**(2q)) for case A or (t_i**(2q-1)) for
    case B, and e~ carrying a single entry 1/2 at the row matching the
    target coefficient. The solution must alternate in sign, have a
    constant sign against the certificate values (+-1 at the support), and
    reproduce the design weights via w_i = |beta_i| / (2 sum |beta|).
    Returns True iff the reproduced weights match ``design.weights`` within
    1e-8.
    """
    tag, k = classify(problem)
    if tag == "C":
        raise InvalidProblemError("the half-range system applies to cases A and B only")
    if design.size != 2 * k:
        raise InvalidProblemError(f"expected a design on {2 * k} points, got {design.size}")
    t_neg = design.support[:k]
    if tag == "A":
        rows = [t_neg ** (2 * q) for q in range(1, k + 1)]
        row = problem.p // 2
    else:
        rows = [t_neg ** (2 * q - 1) for q in range(1, k + 1)]
        row = (problem.p + 1) // 2
    f_mat = np.vstack(rows)
    rhs = np.zeros(k)
    rhs[row - 1] = 0.5
    try:
        beta = np.linalg.solve(f_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError("half-range moment system is singular") from exc

    signs = np.sign(beta)
    if np.any(signs == 0.0) or not np.all(signs[1:] == -signs[:-1]):
        return False
    ratio = signs * np.sign(certificate_for(problem)(t_neg))
    if not np.all(ratio == ratio[0]):
        return False
    half = np.abs(beta)
    weights = np.concatenate([half, half[::-1]]) / (2.0 * half.sum())
    return bool(np.abs(weights - design.weights).max() <= 1e-8)
