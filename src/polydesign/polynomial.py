"""Polynomials with zero intercept, held in the intercept-free Chebyshev basis.

The model space -- polynomials of degree at most m that vanish at 0 -- is
spanned by g_j = T_j - T_j(0), j = 1..m, and this is the one basis the
library computes in. A :class:`Polynomial` stores the coefficients
v_1..v_m of g_1..g_m. They are also its Chebyshev coefficients c_1..c_m;
c_0 = -sum_j v_j T_j(0) is implied, so a zero intercept is a property of the
format, not a check. A polynomial bounded by 1 on [-1, 1] has Chebyshev
coefficients of at most 2 in magnitude, however large and alternating its
monomial coefficients are, so nothing is lost by storing them in double and
evaluating them by Clenshaw's recurrence. Monomials appear only at the
edges: :func:`coefficient` reads out the coefficient of x**p, and
:meth:`Polynomial.from_monomial` converts monomial coefficients exactly.

The basis is owned here: its values (:func:`intercept_free_vander`, the
model's regression vector) and the coefficients of x**p in T_j
(:func:`power_coefficients`) that carry a model coefficient into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import InvalidCertificateError, NumericalDegeneracyError, is_integer
from .points import check_order


def _t_at_zero(m: int) -> np.ndarray:
    # T_j(0) = cos(j pi / 2), j = 1..m: exactly 0, -1, 0, 1, repeated
    return np.array([0.0, -1.0, 0.0, 1.0])[np.arange(m) % 4]


def _series(v: np.ndarray) -> np.ndarray:
    # the Chebyshev series [c_0, v_1, ..., v_m] of sum_j v_j g_j
    return np.concatenate([[-(v @ _t_at_zero(v.size))], v])


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Immutable polynomial sum_j coeffs[j - 1] * (T_j - T_j(0)), j = 1..m."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_monomial(cls, coeffs) -> "Polynomial":
        """The polynomial sum_q coeffs[q] x**q, converted exactly.

        ``coeffs[0]`` is the intercept, and anything but an exact 0 raises
        :class:`InvalidCertificateError`. Every double is a rational, and
        x**q = 2**(1 - q) sum_i C(q, i) T_{q - 2i} (the T_0 term halved), so
        each Chebyshev coefficient c_1..c_m is an exact rational sum,
        rounded to double once. Non-finite coefficients, and sums beyond the
        double range, raise ``ValueError``.
        """
        c = cls(coeffs).coeffs  # the same checks: one-dimensional, non-empty, finite
        if c[0] != 0.0:
            raise InvalidCertificateError("certificate must have zero intercept")
        sums = [Fraction(0)] * c.size
        for q, c_q in enumerate(c):
            if c_q == 0.0:  # adds nothing; skipping keeps a long zero tail cheap
                continue
            for i in range((q - 1) // 2 + 1):  # the T_0 term only feeds c_0
                sums[q - 2 * i] += Fraction(c_q) * math.comb(q, i) / 2 ** (q - 1)
        try:
            return cls([float(s) for s in sums[1:]] or [0.0])
        except OverflowError as exc:
            raise ValueError("coeffs must be finite in the Chebyshev basis") from exc

    @property
    def degree(self) -> int:
        nonzero = np.nonzero(self.coeffs)[0]
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    def __call__(self, x):
        """Evaluate at ``x`` (scalar or array) by Clenshaw's recurrence.

        Runs in plain double on the Chebyshev series [c_0, v_1, ..., v_m],
        so the result does not depend on the platform's ``long double``.
        The series is scaled by 2**-e, e the binary exponent of max|v|, and
        the values scaled back: exact, and the recurrence's intermediates
        stay finite wherever P's values are.
        """
        e = math.frexp(np.abs(self.coeffs).max())[1]
        # np.ldexp, since 2.0**e overflows at e = 1024
        series = _series(np.ldexp(self.coeffs, -e))
        y = np.ldexp(ncheb.chebval(np.asarray(x, dtype=float), series), e)
        return float(y) if np.ndim(x) == 0 else y

    def peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """Points of [-1, 1] where |P| can peak, and P's values there.

        The points are -1, 1 and the real parts, clipped to [-1, 1], of the
        roots of P', so max |values| is the supremum of |P| on [-1, 1] up to
        the rounding of the roots, and never above it. The roots are those
        of (P / max|v|)', which stay finite wherever v does; values beyond
        the double range come back as inf or nan.

        >>> float(abs(Polynomial([0.0, 0.0, 1.0]).peaks()[1]).max())  # T_3
        1.0
        """
        v = self.coeffs
        unit = _series(v / (np.abs(v).max() or 1.0))
        roots = ncheb.chebroots(ncheb.chebder(unit))
        x = np.concatenate([[-1.0, 1.0], np.clip(roots.real, -1.0, 1.0)])
        return x, self(x)

    def padded(self, degree: int) -> "Polynomial":
        """Return a copy carrying explicit zero coefficients up to ``degree``."""
        if self.coeffs.size >= degree:
            return self
        c = np.zeros(degree)
        c[: self.coeffs.size] = self.coeffs
        return Polynomial(c)


def coefficient(poly: Polynomial, p: int) -> float:
    """Coefficient of x**p: 0.0 for p = 0 and for p above the stored degree."""
    if not is_integer(p):
        raise ValueError(f"coefficient index must be an integer, got {p!r}")
    if p < 0:
        raise ValueError("coefficient index must be nonnegative")
    if p == 0:
        return 0.0
    return float(poly.coeffs @ power_coefficients(poly.coeffs.size, p))


def intercept_free_vander(x, m: int) -> np.ndarray:
    """Values of g_j(x) = T_j(x) - T_j(0), j = 1..m, in the last axis.

    This is the model's regression vector. The g_j span the same space as
    the monomials (x, ..., x**m) -- g(x) = A f(x) with A[j, q] the
    coefficient of x**q in T_j -- but are bounded by 2 on [-1, 1], so
    matrices of their values stay well conditioned where monomial
    Vandermonde matrices do not. g_j has the parity of j. For an array
    ``x`` the result has shape ``x.shape + (m,)``.
    """
    g = ncheb.chebvander(x, m)[..., 1:]
    # in place, since a second array of this size costs more than chebvander itself
    g -= _t_at_zero(m)
    return g


def power_coefficients(m: int, p: int) -> np.ndarray:
    """Coefficient of x**p in T_1, ..., T_m, i.e. column p of A.

    The coefficient of x**p in sum_j v_j g_j(x) is d . v, so d carries
    model coefficient p into the basis of :func:`intercept_free_vander`.
    For j = p + 2r the entry is the integer
    (-1)**r 2**(p - 1) j C(j - r, r) / (j - r), computed exactly and rounded
    once; entries with j - p odd, or j < p, are zero. A p that is no integer
    raises ``ValueError``, and an entry beyond the double range
    :class:`NumericalDegeneracyError`, so every caller fails with the
    library's error. No p overflows for m <= 809; the first that does is
    (810, 560), where the middle entries of the column overflow first, and
    every p from 1025 on does, through 2**(p - 1).
    """
    if not is_integer(p):
        raise ValueError(f"coefficient index must be an integer, got {p!r}")
    p = int(p)  # a numpy integer p would make the products wrap in int64
    d = np.zeros(m)
    try:
        for j in range(p, m + 1, 2):
            r = (j - p) // 2
            d[j - 1] = float((-1) ** r * 2 ** (p - 1) * j * math.comb(j - r, r) // (j - r))
    except OverflowError as exc:
        raise NumericalDegeneracyError(f"coefficients of x**{p} overflow the double range") from exc
    return d


def e_polynomial(k: int) -> Polynomial:
    """Even degree-2k polynomial equioscillating between -1 and 1 on [-1, 1].

    E(x) = T_k(y(x)) with y(x) = (1 + c) x**2 - c and c = cos(pi/2k), which
    maps [-1, 1] onto [-c, 1]. E takes the value 1 at x = +-1 and 0 at
    x = 0, and its 2k extremal points (all of absolute value 1) serve as
    design support for even coefficient indices. Since y = a T_2 + b with
    a = (1 + c)/2, b = (1 - c)/2 and T_i(T_2(x)) = T_{2i}(x), the
    coefficient of T_{2i} in E is that of T_i in the degree-k series
    T_k(a u + b), which :func:`numpy.polynomial.chebyshev.chebinterpolate`
    recovers from k + 1 samples. The odd coefficients are zero by
    construction.
    """
    check_order(k)
    c = math.cos(math.pi / (2 * k))
    a, b = (1.0 + c) / 2.0, (1.0 - c) / 2.0
    # the samples lie strictly inside [-1, 1], so a u + b stays below 1
    series = ncheb.chebinterpolate(lambda u: np.cos(k * np.arccos(a * u + b)), k)
    v = np.zeros(2 * k)
    v[1::2] = series[1:]
    return Polynomial(v)
