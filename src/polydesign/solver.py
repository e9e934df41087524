"""Closed-form minimum-variance designs for a single coefficient.

For the degree-n polynomial model without intercept on [-1, 1] the design
minimizing the variance of the estimate of coefficient p sits on the
extrema of one equioscillating polynomial, its certificate. With
k = n // 2 the parities of n and p give three cases, and two of them
follow one rule:

* case "A" (p even): the certificate is E_2k, the even equioscillating
  polynomial of degree 2k, and the one design sits on its 2k extrema;
* cases "B" (n even) and "C" (n odd), p odd: the certificate is the
  Chebyshev polynomial T_s, s the largest odd number <= n, with s + 1
  extrema. In case B they carry the one design. In case C, where s = n,
  the optimal designs on all n + 1 extrema form a segment; its two ends
  each drop one extremum, and they are the two designs, mirror images of
  each other under x -> -x.

In every case the weights have the same closed form: with a_{i,p} the
coefficient of x**p in the i-th intercept-free Lagrange basis polynomial of
the support, w_i = |a_{i,p}| / sum_j |a_{j,p}|. The scaling constant
h = sum_j |a_{j,p}| gives the optimal variance h**2, and the certificate
is bounded by 1 on [-1, 1], equals +-1 on the support, and reproduces d_p,
the coefficients of x**p in T_1..T_n, as h * sum_i g(x_i) w_i P(x_i) in
the basis g_j = T_j - T_j(0) of :mod:`polydesign.polynomial`.

:func:`solve` computes the weights from that identity. P has the parity
of p and g_j that of j, so on the symmetric extrema with symmetric weights
the identity keeps only the entries j = p (mod 2), and on the m positive
extrema it is a square m x m system, G_half^T u = d_p[j = p (mod 2)], with
u_i = 2 h w_i P(x_i). So h = sum_i |u_i|, and w_i = |u_i| / (2h) on each
half. In cases A and B this is the one optimal design. In case C it is
the symmetric optimal design on all n + 1 extrema of T_n (Studden's design
for x**p in the model with intercept), and the optimal designs there are
w + t delta: delta_i = l_i(0) T_n(x_i), l_i the Lagrange basis at the
extrema, changes none of the sums the identity reads. In barycentric form
(Berrut and Trefethen, SIAM Review 46, 2004) delta_i is (-1)**k / n times
c_i / x_i, c_i = 1/2 at +-1 and 1 elsewhere. The segment ends where
its first weight vanishes, a ratio test over all n + 1 extrema, and so
that test decides which mirror pair of extrema the two designs drop.

The optimal weights on another support of m points, with points of both
signs, are those of the LP oracle run on that support as its grid,
``elfving_lp(DesignProblem(m, p), support)``.

Everything but the target d_p is fixed by n and the case: the certificate,
its extrema with its signs there, the basis values g_1..g_n at those
extrema, the positive half's system and delta. :func:`_geometry` computes
them once per (n, case tag) and keeps the ``_GEOMETRY_CACHE_SIZE`` = 64
most recently used keys, enough for every key with n <= 30 (59 of them).
An entry is dominated by its basis values, at most 8 * n * (n + 1) bytes
(the half system is a view of them), so the cache holds under 0.2 MB for
n <= 30 and about 5 MB at most for n <= 100. The half solve and the
self-check both read these basis values, and :func:`_passing`, the sign
test, reads the signs, so :func:`solve` builds no basis on a warm cache
and computes d_p once. The cached arrays are read-only and :func:`solve`
indexes fresh copies out of them, so its results are bit-identical to a
call on a cold cache and never alias it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import CONDITION_TOL, Design, DesignProblem, _certificate_identity
from .errors import NumericalDegeneracyError
from .points import s_points, t_points
from .polynomial import Polynomial, e_polynomial, intercept_free_vander, power_coefficients

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

_GEOMETRY_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class OptimalResult:
    """Solved design problem: one design (cases A, B) or two (case C).

    ``variance`` equals ``h**2`` exactly; all designs share it. The
    certificate polynomial is oriented so that
    h * sum_i g(x_i) w_i certificate(x_i) = d_p with h positive.
    ``case_c_pair`` names the pair of extrema the two case-C designs drop:
    "endpoint" (extrema 0 and 2k + 1) or "central" (k and k + 1); it is
    None in cases A and B.
    """

    problem: DesignProblem
    designs: tuple[Design, ...]
    h: float
    variance: float
    certificate: Polynomial
    case_tag: str
    case_c_pair: str | None = None


def classify(problem: DesignProblem) -> tuple[str, int]:
    """Case tag ("A", "B" or "C") and the order k = n // 2."""
    n, p = problem.n, problem.p
    k = n // 2
    if p % 2 == 0:
        return CASE_A, k
    if n % 2 == 0:
        return CASE_B, k
    return CASE_C, k


def _passing(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of the rows of u that pass :func:`solve`'s test.

    ``values`` holds the certificate's value P(t_i), +-1, at each row's
    points. A row passes iff no |u_i| is numerically zero (below 1e-12 of
    the row's maximum) or NaN, and sign(u_i) * P(t_i) is the same for
    every i. A one-dimensional u is one row.
    """
    abs_u, orientation = np.abs(u), np.sign(u) * values
    nonzero = abs_u.min(axis=-1) > 1e-12 * abs_u.max(axis=-1)  # NaN propagates and fails
    return np.flatnonzero(nonzero & (orientation.min(axis=-1) == orientation.max(axis=-1)))


class _Geometry(NamedTuple):
    certificate: Polynomial  # n coefficients
    points: np.ndarray  # the certificate's extrema, sorted
    values: np.ndarray  # the certificate's sign, +-1, at each point
    g: np.ndarray  # intercept_free_vander(points, n)
    half: np.ndarray  # g at the positive points, in the columns j = p (mod 2)
    delta: np.ndarray  # c_i / x_i, c_i = 1/2 at +-1 and 1 elsewhere


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _geometry(n: int, tag: str) -> _Geometry:
    """The case's certificate and its extrema, and g, ``half`` and delta there.

    The one place that maps a case to its certificate: E_2k on
    ``t_points(k)`` for even p, and T_s on ``s_points((s + 1) // 2)`` for
    odd p, with k = n // 2 and s the largest odd number <= n (n - 1 in case
    B, n in case C). For odd s, T_s = g_s, so that certificate is a unit
    vector; E_2k has 2k coefficients, and at odd n a zero pads it to n. The
    points are the certificate's extrema, where its value is +-1, and
    ``values`` is the sign of the certificate evaluated there. The
    evaluation carries only the rounding of the Chebyshev coefficients and
    of the points (about 1e-14 at degree 30), so the sign is exact. It
    alternates, from -1 at x = -1 for T_s and on each half from 1 at
    x = +-1 for the even E_2k.

    The basis values g_1..g_n are computed once over the points; the
    self-check reads them all. ``half`` is the view of them at the m
    positive points (the upper half of the sorted points) in the m columns
    j with the parity of p, which the tag fixes: the even j in case A (so
    at odd n the column g_n drops out), the odd j in cases B and C. It is
    square, with m = k in cases A and B and m = k + 1 in case C. ``delta``
    is c_i / x_i at every point, c_i = 1/2 at x = +-1 and 1 elsewhere, the
    direction of case C's segment of optimal designs. Nothing here depends
    on p, so it is cached (see the module docstring), and every array is
    read-only.
    """
    k = n // 2
    if tag == CASE_A:
        certificate = Polynomial(np.concatenate([e_polynomial(k).coeffs, np.zeros(n % 2)]))
        points = t_points(k)
    else:
        s = 2 * k - 1 if tag == CASE_B else 2 * k + 1
        certificate, points = Polynomial(np.eye(n)[s - 1]), s_points((s + 1) // 2)
    values = np.sign(certificate(points))
    g = intercept_free_vander(points, n)
    half = g[points.size // 2 :, tag == CASE_A :: 2]
    delta = np.where(np.abs(points) == 1.0, 0.5, 1.0) / points
    for array in (points, values, g, half, delta):
        array.setflags(write=False)
    return _Geometry(certificate, points, values, g, half, delta)


def certificate_for(problem: DesignProblem) -> Polynomial:
    """Canonical certificate polynomial of a problem, padded to degree n.

    The even equioscillating polynomial E_2k for even p, and the Chebyshev
    polynomial T_s, s the largest odd number <= n, for odd p. For
    (n, p) = (3, 2) this picks x**2 out of the one-parameter family of
    valid certificates. :func:`solve` orients it so that h > 0.
    """
    return _geometry(problem.n, classify(problem)[0]).certificate


def solve(problem: DesignProblem) -> OptimalResult:
    """Optimal design(s), scaling constant h, variance h**2 and certificate.

    One m x m solve on the certificate's m positive extrema,
    G_half^T u = d_p[j = p (mod 2)], gives u_i = 2 h w_i P(x_i) (see the
    module docstring). It must pass the test of :func:`_passing`: every u_i
    nonzero and sign(u_i) * P(x_i), the orientation, constant. The
    orientation orients the certificate, h = sum_i |u_i|, and the
    weights |u_i| / (2h) are mirrored exactly onto the negative extrema.
    That is the one design of cases A and B.

    In case C it is the midpoint of the segment of optimal designs w + t
    delta on all n + 1 extrema of T_n, and the two designs are the
    segment's ends, where its first weight vanishes: a decision over all
    n + 1 extrema, which by symmetry the ratio test makes on the positive
    half, picking the extremum i with the smallest w_i / delta_i. The ends
    drop i and its mirror image. The pair that occurs is the endpoint
    pair, extrema 0 and 2k + 1, for p up to a bound that grows with n (1
    below degree 9, 3 up to degree 19), and the central pair, extrema k and
    k + 1, above it; any other pair raises
    :class:`NumericalDegeneracyError`, as ``case_c_pair`` has no name for
    it. Design 1 drops extremum 2k + 1 (endpoint) or k (central), and
    design 2 is its exact mirror image, the mirrored points (exact
    negatives) with the weights reversed.

    Every design is checked internally against the certificate identity
    d_p = h * sum_i g(x_i) w_i P(x_i), condition (3) of the verifier, at
    its tolerance, and the identity's h against the returned one; a
    violation raises :class:`NumericalDegeneracyError` instead of returning
    a bad design. The check runs the verifier's core on the cached basis
    values of the support and the same d_p. A variance h**2 beyond the
    double range raises it too.
    """
    tag, k = classify(problem)
    # raises where d_p leaves the double range (first at (810, 560)), before the cache fills
    d = power_coefficients(problem.n, problem.p)
    case = _geometry(problem.n, tag)
    m = case.half.shape[0]
    try:
        u = np.linalg.solve(case.half.T, d[1 - problem.p % 2 :: 2])
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError("singular system for the target coefficient") from exc
    if _passing(u, case.values[m:]).size != 1:
        raise NumericalDegeneracyError(f"the half solve for {problem} fails the sign test")
    h, sigma = float(np.abs(u).sum()), float(np.sign(u[0]) * case.values[m])
    if not math.isfinite(h * h):
        raise NumericalDegeneracyError(
            f"variance h**2 overflows the double range for {problem} (h = {h:.3e})"
        )
    half = np.abs(u) / (2.0 * h)
    index, w = np.arange(2 * m), np.concatenate([half[::-1], half])
    chosen, pair = [(index, w)], None
    if tag == CASE_C:  # the segment w + t * delta ends where its first weight vanishes
        i = int(np.argmin(half / case.delta[m:]))
        pair = {0: "central", m - 1: "endpoint"}.get(i)  # at n = 1 the two pairs coincide
        if pair is None:
            raise NumericalDegeneracyError(
                f"the ratio test drops extrema {k - i} and {m + i} for {problem}"
            )
        t = half[i] / case.delta[m + i] * (-1.0 if pair == "endpoint" else 1.0)
        drop = 2 * k + 1 if pair == "endpoint" else k
        index, w = np.delete(index, drop), np.delete(w + t * case.delta, drop)
        # and design 2, its mirror image under x -> -x, as a copy
        chosen = [(index, w), (case.points.size - 1 - index[::-1], w[::-1].copy())]
    designs: list[Design] = []
    for index, w in chosen:
        # fancy indexing copies, so no returned array aliases the cache
        design = Design(case.points[index], w)
        h_check, resid = _certificate_identity(case.g[index], design.weights,
                                               sigma * case.values[index], d)
        if resid > CONDITION_TOL or abs(h_check - h) > CONDITION_TOL * h:
            raise NumericalDegeneracyError(
                f"certificate identity violated (residual {resid:.3e}) for {problem}"
            )
        designs.append(design)

    return OptimalResult(
        problem=problem,
        designs=tuple(designs),
        h=h,
        variance=h * h,
        certificate=Polynomial(sigma * case.certificate.coeffs + 0.0),  # +0.0 clears negative zeros
        case_tag=tag,
        case_c_pair=pair,
    )
