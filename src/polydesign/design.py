"""Design measures, moment matrices and the estimability criterion.

A design is a finitely supported probability measure on [-1, 1]. For the
degree-n model without intercept the regression vector is
f(x) = (x, x**2, ..., x**n), the information matrix is the weighted moment
matrix sum_i w_i f(x_i) f(x_i)^T, and the criterion value for a coefficient
vector c is c^T M^+ c when c is estimable under the design and infinity
otherwise. Symmetric matrices are plain float64 numpy arrays throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegreeError, InvalidDesignError, InvalidProblemError

#: relative eigenvalue cutoff used by :func:`pseudo_inverse`
RANK_TOL = 1e-10

#: absolute tolerance on the weight sum of a valid design
WEIGHT_SUM_TOL = 1e-12

#: column-space membership tolerance used by :func:`phi_c`
ADMISSIBLE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Design:
    """Probability measure with finite support on [-1, 1].

    Support points are strictly increasing, weights are positive and sum to
    one (within ``WEIGHT_SUM_TOL``).
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.support, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
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
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.p, numbers.Integral)):
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


def regression_vector(x, n: int) -> np.ndarray:
    """f(x) = (x, x**2, ..., x**n) -- no leading 1, the model has no intercept.

    For an array of m points the result is the (n, m) matrix whose column j
    is f(x_j); a scalar gives shape (n,). This is the only place the model's
    monomial regression basis is written down; the same space in the
    well-conditioned basis g_j = T_j - T_j(0), which the solver's weights and
    the LP oracle use, is :func:`polydesign.polynomial.intercept_free_vander`.
    Each power is its own ``x**q``, so the rows are bit-identical to
    computing the powers one by one.
    """
    if n < 1:
        raise InvalidDegreeError("degree must be at least 1")
    x = np.asarray(x, dtype=float)
    return np.stack([x**q for q in range(1, n + 1)])


def information_matrix(design: Design, n: int) -> np.ndarray:
    """Weighted moment matrix with entry (q, r) = sum_i w_i x_i**(q+r).

    Entries are filled from a single moment table, so the result is
    symmetric bit-for-bit and positive semidefinite up to rounding.
    """
    if n < 1:
        raise InvalidDegreeError("degree must be at least 1")
    x, w = design.support, design.weights
    powers = x[:, None] ** np.arange(0, 2 * n + 1)[None, :]
    moments = w @ powers
    m = np.empty((n, n))
    for q in range(1, n + 1):
        m[q - 1, :] = moments[q + 1 : q + n + 1]
    return m


def pseudo_inverse(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Moore-Penrose inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with ``|lam| <= RANK_TOL * max|lam|`` are treated as zero;
    the second return value is the resulting numerical rank. The zero matrix
    maps to the zero matrix with rank 0.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(a).max(initial=0.0)
    if np.abs(a - a.T).max(initial=0.0) > 1e-14 * max(1.0, scale):
        raise ValueError("matrix must be symmetric")
    lam, vecs = np.linalg.eigh(a)
    cutoff = RANK_TOL * np.abs(lam).max(initial=0.0)
    keep = np.abs(lam) > cutoff
    inv_lam = np.where(keep, 1.0, 0.0)
    inv_lam[keep] = 1.0 / lam[keep]
    pinv = (vecs * inv_lam) @ vecs.T
    pinv = 0.5 * (pinv + pinv.T)
    return pinv, int(np.count_nonzero(keep))


def phi_c(design: Design, c, n: int) -> float:
    """Criterion value c^T M^+ c, or ``math.inf`` when c is not estimable.

    This is the library's one estimability test: c is estimable under the
    design iff it lies in the column space of M, checked as
    ``|M M^+ c - c| <= ADMISSIBLE_TOL * max(1, |c|)``, so
    ``math.isfinite(phi_c(...))`` answers "is c estimable?". For estimable
    c the value does not depend on the choice of generalized inverse;
    infinity is a sentinel value, not an error.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"coefficient vector must have length {n}")
    m = information_matrix(design, n)
    pinv, _ = pseudo_inverse(m)
    resid = np.abs(m @ (pinv @ c) - c).max()
    if resid > ADMISSIBLE_TOL * max(1.0, np.abs(c).max()):
        return math.inf
    return float(c @ pinv @ c)
