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
1 on [-1, 1], equals +-1 on the support, and reproduces d_p, the
coefficients of x**p in T_1..T_n, as h * sum_i g(x_i) w_i P(x_i) in the
basis g_j = T_j - T_j(0) of :mod:`polydesign.polynomial`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .design import Design, DesignProblem, certificate_identity
from .elfving import CONDITION_TOL
from .errors import (
    DegenerateCoefficientError,
    InvalidNodesError,
    InvalidProblemError,
    NumericalDegeneracyError,
)
from .points import s_points, t_points, x_points
from .polynomial import Polynomial, e_polynomial, intercept_free_vander, power_coefficients

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"


@dataclass(frozen=True, eq=False)
class OptimalResult:
    """Solved design problem: one design (cases A, B) or two (case C).

    ``variance`` equals ``h**2`` exactly; all designs share it. The
    certificate polynomial is oriented so that
    h * sum_i g(x_i) w_i certificate(x_i) = d_p with h positive.
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
    """Exact values (all +-1) of the certificate at its point family.

    The families are extremal points of their certificate, where the value
    alternates with the point index. The closed-form pattern is exact, while
    evaluating the certificate carries the rounding of its Chebyshev
    coefficients and of the points (about 1e-14 at degree 30).
    """
    if case_tag == CASE_A:
        half = (-1.0) ** np.arange(k)  # value at the i-th negative point
        return np.concatenate([half, half[::-1]])
    return (-1.0) ** np.arange(1, 2 * k + (3 if case_tag == CASE_C else 1))


def _lagrange_columns(supports: np.ndarray, p: int) -> np.ndarray:
    """a_{i,p} for each row of a (rows, m) stack of supports, in one solve.

    V a = e_p with V[q, i] = t_i**q becomes G a = d_p in the well-conditioned
    basis g_j = T_j - T_j(0), j = 1..m: G[j, i] = g_j(t_i), d_p[j] = the
    coefficient of x**p in T_j.
    """
    m = supports.shape[-1]
    g = intercept_free_vander(supports, m)
    try:  # d overflows the double range from p = 1025 on
        d = np.broadcast_to(power_coefficients(m, p)[:, None], (*supports.shape, 1))
        return np.linalg.solve(np.swapaxes(g, -1, -2), d)[..., 0]
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise NumericalDegeneracyError(f"singular or overflowing system for x**{p}") from exc


def _nondegenerate(abs_a: np.ndarray) -> np.ndarray:
    """Rows of |a_{i,p}| with no numerically zero (or NaN) entry."""
    return np.all(abs_a > 1e-12 * abs_a.max(axis=-1, keepdims=True), axis=-1)


def _solved_supports(
    problem: DesignProblem,
) -> list[tuple[np.ndarray, np.ndarray, float, float, np.ndarray]]:
    """(support, weights, h, orientation, certificate values) of each optimal design.

    Cases A and B have one candidate support, case C one per one-point drop
    of its 2k + 2 candidates. A candidate is optimal iff every a_{i,p} is
    nonzero and sign(a_{i,p}) * P(t_i), the orientation, is constant.
    """
    tag, k = classify(problem)
    points = {CASE_A: t_points, CASE_B: s_points, CASE_C: x_points}[tag](k).points
    kept = np.arange(points.size)[None]  # one row of indices per candidate support
    if tag == CASE_C:
        # largest dropped candidate first, except that the central pair
        # (p > 1) drops the candidate just left of 0 first
        drops = np.arange(2 * k + 1, -1, -1)
        if problem.p > 1:
            drops[[k, k + 1]] = k, k + 1
        kept = np.nonzero(kept != drops[:, None])[1].reshape(2 * k + 2, -1)
    supports, values = points[kept], _certificate_values(tag, k)[kept]
    expected = 2 if tag == CASE_C else 1
    a = _lagrange_columns(supports, problem.p)
    abs_a = np.abs(a)
    s = np.sign(a) * values
    rows = np.flatnonzero(_nondegenerate(abs_a) & np.all(s == s[:, :1], axis=1))
    if rows.size != expected:
        raise NumericalDegeneracyError(
            f"expected {expected} consistent supports for {problem}, found {rows.size}"
        )
    h = abs_a[rows].sum(axis=1)
    return [
        (supports[r], abs_a[r] / h_r, float(h_r), float(s[r, 0]), values[r])
        for r, h_r in zip(rows, h)
    ]


def optimal_supports(problem: DesignProblem) -> list[np.ndarray]:
    """Support point sets of the optimal designs, sorted ascending.

    Case C drops one point from the 2k + 2 candidates, giving two
    mirror-image supports: the pair whose weights come out positive. For
    p = 1 and for the endpoint pair (first needed at degree 9, coefficient
    3) the largest candidate is dropped first; for the central pair, the
    candidate just left of 0.
    """
    return [entry[0] for entry in _solved_supports(problem)]


def weights_from_lagrange(support, p: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Closed-form weights for a support, plus the scaling constant h.

    With a_{i,p} the coefficient of x**p in the i-th intercept-free Lagrange
    basis polynomial of the support (column p of the inverse intercept-free
    Vandermonde matrix, solved in the Chebyshev basis), returns
    (|a| / sum|a|, sum|a|, sign(a)). The support must be one-dimensional,
    with finite, distinct, nonzero points in [-1, 1]. Raises
    :class:`DegenerateCoefficientError` when any coefficient is numerically
    zero, which signals a support/index combination with no positive-weight
    solution of this form.
    """
    t = np.asarray(support, dtype=float)
    if t.ndim > 1:
        raise InvalidNodesError(f"support must be one-dimensional, got shape {t.shape}")
    t = np.atleast_1d(t)
    m = t.size
    if not isinstance(p, numbers.Integral) or not 1 <= p <= m:
        raise InvalidProblemError(f"coefficient index {p!r} not an integer in 1..{m}")
    if not np.all(np.isfinite(t)):
        raise InvalidNodesError("nodes must be finite")
    if np.abs(t).max() > 1.0:
        raise ValueError("support must lie in [-1, 1]")
    if np.any(t == 0.0):
        raise InvalidNodesError("nodes must be nonzero")
    if np.unique(t).size != m:
        raise InvalidNodesError("nodes must be distinct")
    a = _lagrange_columns(t[None], p)[0]
    abs_a = np.abs(a)
    if not _nondegenerate(abs_a):
        raise DegenerateCoefficientError(
            f"basis coefficient for x**{p} vanishes at some support point"
        )
    h = float(abs_a.sum())
    return abs_a / h, h, np.sign(a)


def certificate_for(problem: DesignProblem) -> Polynomial:
    """Canonical certificate polynomial of a problem, padded to degree n.

    The one place that maps a case to its certificate: the even
    equioscillating polynomial of degree 2k for even p (case A), the
    Chebyshev polynomial T_{n-1} for odd p with n even (case B), and T_n for
    odd p with n odd (case C). For odd s, T_s = g_s, so the certificate of
    cases B and C is a unit vector. For (n, p) = (3, 2) this picks x**2 out
    of the one-parameter family of valid certificates. :func:`solve` orients
    it so that h > 0.
    """
    tag, k = classify(problem)
    if tag == CASE_A:
        return e_polynomial(k).padded(problem.n)
    s = 2 * k - 1 if tag == CASE_B else 2 * k + 1
    return Polynomial(np.eye(problem.n)[s - 1])


def _symmetrized(w: np.ndarray) -> np.ndarray:
    # pairwise sums are commutative, so the result is symmetric bit-for-bit
    v = w + w[::-1]
    return v / v.sum()


def solve(problem: DesignProblem) -> OptimalResult:
    """Optimal design(s), scaling constant h, variance h**2 and certificate.

    Every output is checked internally against the certificate identity
    d_p = h * sum_i g(x_i) w_i P(x_i), condition (3) of the verifier, at
    its tolerance, and the identity's h against the returned one; a
    violation raises :class:`NumericalDegeneracyError` instead of returning
    a bad design.
    """
    tag, _ = classify(problem)
    solved = _solved_supports(problem)
    _, _, h, sigma, _ = solved[0]
    designs: list[Design] = []
    for support, w, h_s, sigma_s, values in solved:
        if abs(h_s - h) > 1e-10 * max(1.0, h):
            raise NumericalDegeneracyError("mirror designs disagree on the scaling constant")
        if sigma_s != sigma:
            raise NumericalDegeneracyError("mirror designs disagree on certificate orientation")
        design = Design(support, w if tag == CASE_C else _symmetrized(w))
        h_check, resid = certificate_identity(design, problem, sigma * values)
        if resid > CONDITION_TOL or abs(h_check - h) > CONDITION_TOL * h:
            raise NumericalDegeneracyError(
                f"certificate identity violated (residual {resid:.3e}) for {problem}"
            )
        designs.append(design)

    # +0.0 clears negative zeros
    certificate = Polynomial(sigma * certificate_for(problem).coeffs + 0.0)
    return OptimalResult(
        problem=problem,
        designs=tuple(designs),
        h=h,
        variance=h * h,
        certificate=certificate,
        case_tag=tag,
    )
