"""Closed-form minimum-variance designs for a single coefficient.

For the degree-n polynomial model without intercept on [-1, 1] the design
minimizing the variance of the estimate of coefficient p falls into one of
three cases, keyed on the parities of n and p (k = n // 2 throughout):

* case "A" (p even): one design on the 2k extrema of the even
  equioscillating polynomial of degree 2k;
* case "B" (n even, p odd): one design on the 2k extrema of the Chebyshev
  polynomial of degree 2k - 1;
* case "C" (n odd, p odd): exactly two mirror-image designs, each on 2k + 1
  of the 2k + 2 extrema of the Chebyshev polynomial of degree 2k + 1.

In every case the weights have the same closed form: with a_{i,p} the
coefficient of x**p in the i-th intercept-free Lagrange basis polynomial of
the support, w_i = |a_{i,p}| / sum_j |a_{j,p}|. The scaling constant
h = sum_j |a_{j,p}| gives the optimal variance h**2, and the equioscillating
polynomial of the case acts as the optimality certificate: it is bounded by
1 on [-1, 1], equals +-1 on the support, and reproduces the unit vector e_p
as h * sum_i f(x_i) w_i P(x_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Design, DesignProblem, regression_vector
from .errors import (
    DegenerateCoefficientError,
    InvalidProblemError,
    NumericalDegeneracyError,
)
from .points import s_points, t_points, x_points
from .polynomial import Polynomial, chebyshev_t, e_polynomial, lagrange_basis_no_intercept

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

#: tolerance of the solver's internal certificate check, scaled by max(1, h)
_SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OptimalResult:
    """Solved design problem: one design (cases A, B) or two (case C).

    ``variance`` equals ``h**2`` exactly; all designs share it. The
    certificate polynomial is oriented so that
    h * sum_i f(x_i) w_i certificate(x_i) = e_p with h positive.
    """

    problem: DesignProblem
    designs: tuple[Design, ...]
    h: float
    variance: float
    certificate: Polynomial
    case_tag: str


def classify(problem: DesignProblem) -> tuple[str, int]:
    """Case tag ("A", "B" or "C") and the order k = n // 2."""
    n, p = problem.n, problem.p
    k = n // 2
    if p % 2 == 0:
        return CASE_A, k
    if n % 2 == 0:
        return CASE_B, k
    return CASE_C, k


def _certificate_values(case_tag: str, k: int) -> np.ndarray:
    """Exact values (all +-1) of the case A or B certificate at its support.

    The support families are extremal points of their certificate, where the
    value alternates with the point index; using the closed-form pattern
    avoids evaluating a high-degree polynomial from monomial coefficients,
    which loses several digits beyond degree ~20.
    """
    if case_tag == CASE_A:
        half = (-1.0) ** np.arange(k)  # value at the i-th negative point
        return np.concatenate([half, half[::-1]])
    return (-1.0) ** np.arange(1, 2 * k + 1)


def _solved_supports(
    problem: DesignProblem,
) -> list[tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]]:
    """(support, weights, h, signs, certificate values) of each optimal design,
    in the order of :func:`optimal_supports`; case C keeps the weights its
    validation computed."""
    tag, k = classify(problem)
    p = problem.p
    if tag in (CASE_A, CASE_B):
        support = t_points(k).points if tag == CASE_A else s_points(k).points
        return [(support, *weights_from_lagrange(support, p), _certificate_values(tag, k))]
    xs = x_points(k).points  # 2k + 2 candidates
    values = (-1.0) ** np.arange(1, 2 * k + 3)  # certificate values at xs

    def solved(d):
        # the closed-form weights solve the certificate identity with positive
        # masses iff sign(a_{i,p}) * sign(P(t_i)) is constant over the support
        support = np.delete(xs, d)
        try:
            w, h, signs = weights_from_lagrange(support, p)
        except DegenerateCoefficientError:
            return None
        v = np.delete(values, d)
        s = signs * v
        return (support, w, h, signs, v) if np.all(s == s[0]) else None

    pair = []
    for d in [2 * k + 1, 0] if p == 1 else [k, k + 1]:
        entry = solved(d)
        if entry is None:  # the usual pair fails: scan every candidate drop
            pair = [e for e in map(solved, range(2 * k + 1, -1, -1)) if e is not None]
            if len(pair) != 2:
                raise NumericalDegeneracyError(
                    f"expected exactly two consistent supports for {problem}, found {len(pair)}"
                )
            break
        pair.append(entry)
    return pair


def optimal_supports(problem: DesignProblem) -> list[np.ndarray]:
    """Support point sets of the optimal designs, sorted ascending.

    Case C drops one point from the 2k + 2 candidates, giving two
    mirror-image supports in a fixed order. The usual pairs are: for p = 1
    drop the largest candidate, then the smallest; for odd p > 1 drop the
    candidate just left of 0, then the one just right of 0. The central
    pair stops admitting positive weights for some small odd p at large k
    (first at degree 9, coefficient 3), so each pair is validated against
    the sign criterion and, when it fails, the unique consistent pair is
    found by scanning all 2k + 2 candidates (largest dropped index first).
    """
    return [entry[0] for entry in _solved_supports(problem)]


def weights_from_lagrange(support, p: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Closed-form weights for a support, plus the scaling constant h.

    Takes a_{i,p}, the coefficient of x**p in the i-th intercept-free
    Lagrange basis polynomial of the support, from column p of
    :func:`~polydesign.polynomial.lagrange_basis_no_intercept`, which builds
    all m basis polynomials in one batched pass (bit-identical to building
    each one by its own product), and returns
    (|a| / sum|a|, sum|a|, sign(a)). Raises
    :class:`DegenerateCoefficientError` when any coefficient is numerically
    zero, which signals a support/index combination with no positive-weight
    solution of this form.
    """
    t = np.atleast_1d(np.asarray(support, dtype=float))
    m = t.size
    if not 1 <= p <= m:
        raise InvalidProblemError(f"coefficient index {p} not in 1..{m}")
    if np.abs(t).max() > 1.0:
        raise ValueError("support must lie in [-1, 1]")
    a = lagrange_basis_no_intercept(t)[:, p]
    abs_a = np.abs(a)
    if np.any(abs_a <= 1e-12 * abs_a.max()):
        raise DegenerateCoefficientError(
            f"basis coefficient for x**{p} vanishes at some support point"
        )
    h = float(abs_a.sum())
    return abs_a / h, h, np.sign(a)


def certificate_for(problem: DesignProblem) -> Polynomial:
    """Canonical certificate polynomial of a problem, padded to degree n.

    The one place that maps a case to its certificate: the even
    equioscillating polynomial of degree 2k for even p (case A), the
    Chebyshev polynomial of degree n - 1 for odd p with n even (case B), and
    the Chebyshev polynomial of degree n for odd p with n odd (case C). For
    (n, p) = (3, 2) this picks x**2 out of the one-parameter family of valid
    certificates. :func:`solve` orients it so that h > 0.
    """
    tag, k = classify(problem)
    if tag == CASE_A:
        cert = e_polynomial(k)
    elif tag == CASE_B:
        cert = chebyshev_t(2 * k - 1)
    else:
        cert = chebyshev_t(2 * k + 1)
    return cert.padded(problem.n)


def _symmetrized(w: np.ndarray) -> np.ndarray:
    # pairwise sums are commutative, so the result is symmetric bit-for-bit
    v = w + w[::-1]
    return v / v.sum()


def solve(problem: DesignProblem) -> OptimalResult:
    """Optimal design(s), scaling constant h, variance h**2 and certificate.

    Every output is checked internally against the certificate identity
    h * sum f w P = e_p before it is returned; a violation raises
    :class:`NumericalDegeneracyError` instead of returning a bad design.
    """
    tag, _ = classify(problem)
    cert0 = certificate_for(problem)

    designs: list[Design] = []
    cert_values: list[np.ndarray] = []
    h = 0.0
    sigma = 0.0
    for support, w, h_s, signs, values in _solved_supports(problem):
        if tag in (CASE_A, CASE_B):
            w = _symmetrized(w)
        s = signs * values
        if np.any(s == 0.0) or not np.all(s == s[0]):
            raise NumericalDegeneracyError(
                f"certificate/coefficient sign pattern is not constant for {problem}"
            )
        if not designs:
            h, sigma = h_s, float(s[0])
        else:
            if abs(h_s - h) > 1e-10 * max(1.0, h):
                raise NumericalDegeneracyError("mirror designs disagree on the scaling constant")
            if s[0] != sigma:
                raise NumericalDegeneracyError("mirror designs disagree on certificate orientation")
        designs.append(Design(support, w))
        cert_values.append(sigma * values)

    certificate = Polynomial(sigma * cert0.coeffs + 0.0)  # +0.0 clears negative zeros
    for design, values in zip(designs, cert_values):
        achieved = h * (regression_vector(design.support, problem.n) @ (design.weights * values))
        resid = float(np.abs(achieved - problem.unit_vector()).max())
        if resid > _SELF_CHECK_TOL * max(1.0, h):
            raise NumericalDegeneracyError(
                f"certificate identity violated (residual {resid:.3e}) for {problem}"
            )
    return OptimalResult(
        problem=problem,
        designs=tuple(designs),
        h=h,
        variance=h * h,
        certificate=certificate,
        case_tag=tag,
    )
