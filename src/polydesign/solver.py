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
  extrema. In case B they carry the one design; in case C one of them is
  dropped: two candidates are solved, and the optimal one and its mirror
  image under x -> -x are the two designs.

In every case the weights have the same closed form: with a_{i,p} the
coefficient of x**p in the i-th intercept-free Lagrange basis polynomial of
the support, w_i = |a_{i,p}| / sum_j |a_{j,p}|. The scaling constant
h = sum_j |a_{j,p}| gives the optimal variance h**2, and the certificate
is bounded by 1 on [-1, 1], equals +-1 on the support, and reproduces d_p,
the coefficients of x**p in T_1..T_n, as h * sum_i g(x_i) w_i P(x_i) in
the basis g_j = T_j - T_j(0) of :mod:`polydesign.polynomial`.

:func:`solve` evaluates this formula on its candidate supports only. The
optimal weights on another support of m points, with points of both signs,
are those of the LP oracle run on that support as its grid,
``elfving_lp(DesignProblem(m, p), support)``.

Everything but the target d_p is fixed by n and the case: the certificate,
its extrema with their +-1 values, the candidate supports and the basis
values g_1..g_n at those extrema. :func:`_geometry` computes them once per
(n, case tag) and keeps the ``_GEOMETRY_CACHE_SIZE`` = 64 most recently
used keys, enough for every key with n <= 30 (59 of them). An entry is
dominated by its basis values, at most 8 * n * (n + 1) bytes, so the cache
holds under 0.2 MB for n <= 30 and about 5 MB at most for n <= 100. The
Lagrange solve and the self-check both read these basis values, so
:func:`solve` builds no basis on a warm cache and computes d_p once. The
cached arrays are read-only and :func:`solve` indexes fresh copies out of
them, so its results are bit-identical to a call on a cold cache and never
alias it.
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


def _lagrange_columns(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a_{i,p} for each support of a stack, in one solve.

    ``g`` holds the basis values of a (rows, m) stack of supports t,
    ``intercept_free_vander(t, m)``. V a = e_p with V[q, i] = t_i**q becomes
    G a = d_p in the well-conditioned basis g_j = T_j - T_j(0), j = 1..m:
    G[j, i] = g_j(t_i), d_p[j] = the coefficient of x**p in T_j: the first
    m entries of ``d = power_coefficients(n, p)``, n >= m.
    """
    m = g.shape[-1]
    target = np.broadcast_to(d[:m, None], (*g.shape[:-1], 1))
    try:
        return np.linalg.solve(np.swapaxes(g, -1, -2), target)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError("singular system for the target coefficient") from exc


def _nondegenerate(abs_a: np.ndarray) -> np.ndarray:
    """Rows of |a_{i,p}| with no numerically zero (or NaN) entry."""
    return np.all(abs_a > 1e-12 * abs_a.max(axis=-1, keepdims=True), axis=-1)


class _Geometry(NamedTuple):
    certificate: Polynomial  # padded to degree n
    points: np.ndarray  # the certificate's extrema, sorted
    values: np.ndarray  # the certificate's exact value, +-1, at each point
    kept: np.ndarray  # one row of point indices per candidate support
    g: np.ndarray  # intercept_free_vander(points, n)


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _geometry(n: int, tag: str) -> _Geometry:
    """The case's certificate, candidate points and supports, and g there.

    The one place that maps a case to its certificate: E_2k on
    ``t_points(k)`` for even p, and T_s on ``s_points((s + 1) // 2)`` for
    odd p, with k = n // 2 and s the largest odd number <= n (n - 1 in case
    B, n in case C). For odd s, T_s = g_s, so that certificate is a unit
    vector. The points are the certificate's extrema, where the value
    alternates: from -1 at x = -1 for T_s, and on each half from 1 at
    x = +-1 for the even E_2k. This closed-form pattern is exact, while
    evaluating the certificate carries the rounding of its Chebyshev
    coefficients and of the points (about 1e-14 at degree 30).

    Cases A and B have one candidate support, all points. Case C has one
    per pair that may be dropped: row 0 of ``kept`` drops extremum 2k + 1
    of the endpoint pair, row 1 extremum k of the central pair (n > 1).
    The basis values g_1..g_n are computed once over the points; g[kept]
    stacks them per support. The Lagrange solve reads the first
    m = ``kept.shape[1]`` columns, which is n except in case A at odd n
    (m = n - 1), and the self-check all n. Nothing here depends on p, so it
    is cached (see the module docstring), and every array is read-only.
    """
    k = n // 2
    if tag == CASE_A:
        half = (-1.0) ** np.arange(k)  # value at the i-th negative point
        certificate, points = e_polynomial(k).padded(n), t_points(k)
        values = np.concatenate([half, half[::-1]])
    else:
        s = 2 * k - 1 if tag == CASE_B else 2 * k + 1
        certificate, points = Polynomial(np.eye(n)[s - 1]), s_points((s + 1) // 2)
        values = (-1.0) ** np.arange(1, s + 2)
    kept = np.arange(points.size)[None]
    if tag == CASE_C:
        drops = [2 * k + 1, k] if k else [1]  # at n = 1 the central pair is the endpoint pair
        kept = np.nonzero(kept != np.array(drops)[:, None])[1].reshape(len(drops), -1)
    g = intercept_free_vander(points, n)
    for array in (points, values, kept, g):
        array.setflags(write=False)
    return _Geometry(certificate, points, values, kept, g)


def certificate_for(problem: DesignProblem) -> Polynomial:
    """Canonical certificate polynomial of a problem, padded to degree n.

    The even equioscillating polynomial E_2k for even p, and the Chebyshev
    polynomial T_s, s the largest odd number <= n, for odd p. For
    (n, p) = (3, 2) this picks x**2 out of the one-parameter family of
    valid certificates. :func:`solve` orients it so that h > 0.
    """
    return _geometry(problem.n, classify(problem)[0]).certificate


def _symmetrized(w: np.ndarray) -> np.ndarray:
    # pairwise sums are commutative, so the result is symmetric bit-for-bit
    v = w + w[::-1]
    return v / v.sum()


def solve(problem: DesignProblem) -> OptimalResult:
    """Optimal design(s), scaling constant h, variance h**2 and certificate.

    Cases A and B have one candidate support, the certificate's extrema;
    case C drops one of its 2k + 2 extrema. A candidate is optimal iff
    every a_{i,p} is nonzero and sign(a_{i,p}) * P(t_i), the orientation,
    is constant; exactly one must pass. In case C the optimal designs drop
    the endpoint pair, extrema 2k + 1 and 0, for p up to a bound that grows
    with n (1 below degree 9, 3 up to degree 19), and the central pair,
    extrema k and k + 1, above it; no other drop is ever optimal
    (``tests/test_solver.py`` tries every drop with this test for every
    odd n <= 61, and CI up to n = 101). So only the drops of 2k + 1 and k
    are solved: the passing one is design 1, and design 2 is its exact
    mirror image, the mirrored points (exact negatives) with the weights
    reversed.

    Every design is checked internally against the certificate identity
    d_p = h * sum_i g(x_i) w_i P(x_i), condition (3) of the verifier, at
    its tolerance, and the identity's h against the returned one; a
    violation raises :class:`NumericalDegeneracyError` instead of returning
    a bad design. The check runs the verifier's core on the cached basis
    values of the support and the d_p of the Lagrange solve. A variance
    h**2 beyond the double range raises it too.
    """
    tag, _ = classify(problem)
    # raises where d_p leaves the double range (first at (810, 560)), before the cache fills
    d = power_coefficients(problem.n, problem.p)
    case = _geometry(problem.n, tag)
    a = _lagrange_columns(case.g[case.kept, : case.kept.shape[1]], d)
    abs_a = np.abs(a)
    orientation = np.sign(a) * case.values[case.kept]
    consistent = np.all(orientation == orientation[:, :1], axis=1)
    rows = np.flatnonzero(_nondegenerate(abs_a) & consistent)
    if rows.size != 1:
        raise NumericalDegeneracyError(f"expected 1 consistent support for {problem}, found {rows.size}")
    (r,) = rows
    h, sigma = float(abs_a[r].sum()), float(orientation[r, 0])
    if not math.isfinite(h * h):
        raise NumericalDegeneracyError(
            f"variance h**2 overflows the double range for {problem} (h = {h:.3e})"
        )
    index, w = case.kept[r], abs_a[r] / h
    chosen = [(index, w if tag == CASE_C else _symmetrized(w))]
    if tag == CASE_C:  # and its mirror image under x -> -x, as a copy
        chosen.append((case.points.size - 1 - index[::-1], w[::-1].copy()))
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
        case_c_pair=("endpoint", "central")[r] if tag == CASE_C else None,
    )
