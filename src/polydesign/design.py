"""Design measures, moment matrices and the estimability criterion.

A design is a finitely supported probability measure on [-1, 1]. The
degree-n model without intercept is written in the basis
g_j = T_j - T_j(0), j = 1..n, of :mod:`polydesign.polynomial`: the
regression vector is g(x) = A f(x), with f(x) = (x, ..., x**n) and A[j, q]
the coefficient of x**q in T_j, and monomial coefficient vectors c map to
d = A c (for the unit vector e_p, d_p = ``power_coefficients(n, p)``). The
information matrix is the weighted moment matrix
M = sum_i w_i g(x_i) g(x_i)^T, and the criterion value c^T M_f^- c equals
d^T M^+ d when c is estimable under the design, and infinity otherwise.
Symmetric matrices are plain float64 numpy arrays throughout. Condition (3)
of the certificate and ``CONDITION_TOL``, its tolerance, live here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDesignError, InvalidProblemError, NumericalDegeneracyError, is_integer
from .polynomial import intercept_free_vander, power_coefficients

#: absolute tolerance on the weight sum of a valid design
WEIGHT_SUM_TOL = 1e-12

#: column-space membership tolerance used by :func:`phi_c`
ADMISSIBLE_TOL = 1e-8

#: per-condition tolerance (bound excess, extremality, relative identity residual)
CONDITION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Design:
    """Probability measure with finite support on [-1, 1].

    Support and weights are one-dimensional; support points are strictly
    increasing, weights are positive and sum to one (within
    ``WEIGHT_SUM_TOL``).
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.support, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if x.ndim != 1 or w.ndim != 1:
            raise InvalidDesignError("support and weights must be one-dimensional")
        if x.size == 0 or x.shape != w.shape:
            raise InvalidDesignError("support and weights must be non-empty and equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise InvalidDesignError("support points and weights must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise InvalidDesignError("support must be strictly increasing")
        if x[0] < -1.0 or x[-1] > 1.0:
            raise InvalidDesignError("support must lie in [-1, 1]")
        if np.any(w <= 0.0):
            raise InvalidDesignError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidDesignError(f"weights must sum to 1 (got {w.sum()!r})")
        object.__setattr__(self, "support", x)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.support.size)


@dataclass(frozen=True)
class DesignProblem:
    """Model degree n and target coefficient index p, 1 <= p <= n."""

    n: int
    p: int

    def __post_init__(self):
        if not (is_integer(self.n) and is_integer(self.p)):
            raise InvalidProblemError(
                f"degree and coefficient index must be integers, got {self.n!r} and {self.p!r}"
            )
        if self.n < 1:
            raise InvalidProblemError(f"degree must be positive, got {self.n}")
        if not 1 <= self.p <= self.n:
            raise InvalidProblemError(f"coefficient index {self.p} not in 1..{self.n}")

    def unit_vector(self) -> np.ndarray:
        e = np.zeros(self.n)
        e[self.p - 1] = 1.0
        return e


def _check_degree(n) -> None:
    if not is_integer(n):
        raise InvalidProblemError(f"degree must be an integer, got {n!r}")
    if n < 1:
        raise InvalidProblemError(f"degree must be positive, got {n}")


def information_matrix(design: Design, n: int) -> np.ndarray:
    """Weighted moment matrix G diag(w) G^T, with G[j, i] = g_j(x_i).

    The product is averaged with its transpose, so the result is symmetric
    bit-for-bit and positive semidefinite up to rounding.
    """
    _check_degree(n)
    g = intercept_free_vander(design.support, n)
    m = (g.T * design.weights) @ g
    return 0.5 * (m + m.T)


def phi_c(design: Design, c, n: int) -> float:
    """Criterion value c^T M^- c, or ``math.inf`` when c is not estimable.

    ``c`` holds monomial coefficients (c . theta for theta the coefficients
    of x, ..., x**n) and is mapped to d = A c in the basis of
    :func:`information_matrix`. With the weighted basis values
    B[i, j] = sqrt(w_i) g_j(x_i), M = B^T B, and the value d^T M^+ d is
    |z|^2 for z the minimum-norm least-squares solution of B^T z = d, so M
    is never formed and its condition number is never squared. This is the
    library's one estimability test: c is estimable under the design iff d
    lies in the column space of M, which is that of B^T, checked as
    ``|B^T z - d| <= ADMISSIBLE_TOL * max(1, |d|)``, so
    ``math.isfinite(phi_c(...))`` answers "is c estimable?". For estimable
    c the value does not depend on the choice of generalized inverse;
    infinity is a sentinel value, not an error. A non-finite ``c`` raises
    ``ValueError``, and an estimable c whose value |z|^2 exceeds the double
    range raises :class:`NumericalDegeneracyError` (first seen at
    (n, p) = (415, 247)), as ``solve`` does.
    """
    _check_degree(n)
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"coefficient vector must have length {n}")
    if not np.isfinite(c).all():
        raise ValueError("coefficient vector must be finite")
    d = np.zeros(n)
    for q in np.flatnonzero(c):  # a unit vector e_p maps to d_p exactly
        d += c[q] * power_coefficients(n, q + 1)
    return _phi_c(intercept_free_vander(design.support, n), design.weights, d)


def _phi_c(g: np.ndarray, weights: np.ndarray, d: np.ndarray) -> float:
    # phi_c on the basis values g = intercept_free_vander(support, n) and d = A c
    b_t = (np.sqrt(weights)[:, None] * g).T
    z = np.linalg.lstsq(b_t, d, rcond=None)[0]
    if np.abs(b_t @ z - d).max() > ADMISSIBLE_TOL * max(1.0, np.abs(d).max()):
        return math.inf
    # |z|**2 <= z.size * top**2; Python floats overflow to inf without numpy's warning
    top = float(np.abs(z).max())
    if top * top * z.size <= sys.float_info.max:
        return float(z @ z)
    value = float((z / top) @ (z / top)) * top * top
    if not math.isfinite(value):
        raise NumericalDegeneracyError(f"c^T M^- c overflows the double range (|z| max {top:.3e})")
    return value


def certificate_identity(design: Design, problem: DesignProblem, values) -> tuple[float, float]:
    """h and the residual of condition (3), d_p = h * sum_i g(x_i) w_i P(x_i).

    ``values`` are the certificate's values P(x_i) on the support. h is
    solved from the largest entry of d_p, and the residual is
    max|h * sum_i g(x_i) w_i P(x_i) - d_p| / max|d_p|: the identity in the
    basis g carries rounding of order eps * max|d_p|, so it is measured
    relative to that. A moment that vanishes at the solved entry gives
    (inf, inf). This is the one owner of condition (3): the verifier and
    the solver's self-check both run its core, at ``CONDITION_TOL``, on the
    basis values and the d_p they already hold.
    """
    return _certificate_identity(
        intercept_free_vander(design.support, problem.n), design.weights, values,
        power_coefficients(problem.n, problem.p),
    )


def _certificate_identity(g: np.ndarray, weights: np.ndarray, values,
                          d: np.ndarray) -> tuple[float, float]:
    # condition (3) on the basis values g = intercept_free_vander(support, n) and d = d_p
    moment = g.T @ (weights * values)
    j = int(np.abs(d).argmax())
    if moment[j] == 0.0:
        return math.inf, math.inf
    h = float(d[j] / moment[j])
    return h, float(np.abs(h * moment - d).max() / abs(d[j]))
