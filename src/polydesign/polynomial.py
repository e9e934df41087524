"""Dense univariate polynomials over the monomial basis.

Coefficient index j holds the coefficient of x**j, so ``coeffs[0]`` is the
intercept. Trailing zeros are permitted (padding) and ignored by ``degree``.
Coefficients are stored as finite float64. Evaluation on [-1, 1] works in
the Chebyshev basis, where the large alternating monomial coefficients of
high-degree equioscillating polynomials become small and well conditioned:
on first use the stored coefficients are converted to Chebyshev coefficients
exactly, in integer arithmetic, and rounded to double once; every call then
runs Clenshaw's recurrence in plain double. Only the composition in
:func:`e_polynomial` still accumulates in extended precision. The Chebyshev
generator returns exact integer coefficients because the recurrence only
doubles and subtracts. The intercept-free Lagrange basis of a node set is
built for all nodes in one batched pass whose coefficients are
bit-identical to forming each basis polynomial by its own per-node product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import InvalidNodesError, InvalidOrderError


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Immutable polynomial, lowest-order coefficient first."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)  # the cached Chebyshev coefficients depend on it
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        nonzero = np.nonzero(self.coeffs)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    @cached_property
    def _chebyshev(self) -> np.ndarray:
        """Chebyshev coefficients of ``coeffs``, computed exactly, rounded once.

        Every double is an integer times a power of two, and
        x**j = 2**(1 - j) * sum_i C(j, i) T_{j - 2i} with the T_0 term
        halved, so every Chebyshev coefficient is an exact sum of integers
        over one common power-of-two denominator. Python's integer true
        division rounds each sum to the nearest double; a sum beyond the
        double range rounds to +-inf.
        """
        ratios = [float(c).as_integer_ratio() for c in self.coeffs]
        # 2**shift clears each c_j's denominator 2**a_j and the 2**(j - 1) of
        # x**j, with one spare factor 2 for halving the T_0 term
        exponents = [den.bit_length() - 1 for _, den in ratios]
        shift = max(j + a for j, a in enumerate(exponents))
        sums = [0] * len(ratios)
        for j, ((num, _), a) in enumerate(zip(ratios, exponents)):
            if num == 0:
                continue
            scaled = num << (shift + 1 - j - a)  # c_j * 2**(1 - j) * 2**shift
            for i in range(j // 2 + 1):
                term = math.comb(j, i) * scaled
                k = j - 2 * i
                sums[k] += term >> 1 if k == 0 else term
        denominator = 1 << shift
        out = np.empty(len(sums))
        for k, total in enumerate(sums):
            try:
                out[k] = total / denominator
            except OverflowError:
                out[k] = math.inf if total > 0 else -math.inf
        return out

    def __call__(self, x):
        """Evaluate at ``x`` (scalar or array) by Clenshaw's recurrence.

        Runs in plain double on the exact Chebyshev coefficients of the
        polynomial (each rounded once, computed on the first call), so no
        extended precision is needed and the result does not depend on the
        platform's ``long double``. A polynomial bounded by 1 on [-1, 1] has
        Chebyshev coefficients of at most 2 in magnitude, however large and
        alternating its monomial coefficients are, which is why monomial
        Horner loses digits at high degree and Clenshaw does not.
        """
        y = ncheb.chebval(np.asarray(x, dtype=float), self._chebyshev)
        if np.ndim(x) == 0:
            return float(y)
        return y

    def padded(self, degree: int) -> "Polynomial":
        """Return a copy carrying explicit zero coefficients up to ``degree``."""
        if self.coeffs.size >= degree + 1:
            return self
        c = np.zeros(degree + 1)
        c[: self.coeffs.size] = self.coeffs
        return Polynomial(c)


def coefficient(poly: Polynomial, p: int) -> float:
    """Coefficient of x**p, or 0.0 when p exceeds the stored degree."""
    if p < 0:
        raise ValueError("coefficient index must be nonnegative")
    if p >= poly.coeffs.size:
        return 0.0
    return float(poly.coeffs[p])


def chebyshev_t(s: int) -> Polynomial:
    """Chebyshev polynomial of the first kind of degree s, monomial basis.

    Generated by the recurrence T_0 = 1, T_1 = x, T_s = 2x T_{s-1} - T_{s-2},
    so the coefficients are exact integers (stored as floats). Satisfies
    T_s(cos a) = cos(s a).
    """
    if s < 0:
        raise InvalidOrderError("Chebyshev degree must be nonnegative")
    if s == 0:
        return Polynomial(np.array([1.0]))
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    for _ in range(s - 1):
        nxt = np.zeros(cur.size + 1)
        nxt[1:] = 2.0 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return Polynomial(cur)


def e_polynomial(k: int) -> Polynomial:
    """Even degree-2k polynomial equioscillating between -1 and 1 on [-1, 1].

    Built by composing the degree-k Chebyshev polynomial with the quadratic
    y(x) = x**2 (1 + cos(pi/2k)) - cos(pi/2k), which maps [-1, 1] onto
    [-cos(pi/2k), 1]. The result takes the value 1 at x = +-1, has only
    even-power coefficients, and its 2k extremal points (all of absolute
    value 1) serve as design support for even coefficient indices.
    """
    if k < 1:
        raise InvalidOrderError("order k must be at least 1")
    c = np.longdouble(math.cos(math.pi / (2 * k)))
    inner = np.array([-c, 0.0, 1.0 + c], dtype=np.longdouble)  # y(x), ascending
    # Horner in y: repeatedly multiply by the inner quadratic. Extended
    # precision keeps the stored double coefficients correctly rounded;
    # their rounding alone already moves the sup-norm by ~1e-10 at k = 10.
    outer = chebyshev_t(k).coeffs.astype(np.longdouble)
    out = np.array([outer[-1]], dtype=np.longdouble)
    for coef in outer[-2::-1]:
        out = np.convolve(out, inner)
        out[0] += coef
    out = out.astype(float)
    # The value at 0 is cos(k*pi - pi/2) = 0 for every integer k, and odd
    # powers cancel identically; snap both so downstream zero checks hold.
    out[0] = 0.0
    out[1::2] = 0.0
    return Polynomial(out)


def lagrange_basis_no_intercept(nodes) -> np.ndarray:
    """Coefficients of all m intercept-free Lagrange basis polynomials.

    Row i - 1 of the returned (m, m + 1) array holds, lowest order first,

        x * prod_{j != i} (x - t_j) / (t_i * prod_{j != i} (t_i - t_j)),

    the degree-m polynomial that vanishes at 0 and equals delta_ij at t_j.
    Column p holds the coefficients a_{i,p} of x**p, so columns 1..m form
    the inverse of the intercept-free Vandermonde matrix V[q, i] = t_i**q.
    Nodes must be finite, distinct and nonzero: the construction divides by
    t_i and by the pairwise node differences.

    All rows are built together in m vectorized passes: pass j multiplies
    every row except row j by (x - t_j) and every denominator except the
    j-th by (t_i - t_j). Each row therefore sees the same multiplies and
    adds, in the same order, as building it alone with one ``np.convolve``
    per factor, so the coefficients are bit-identical to that per-node
    product. The intercept column is exactly +0.0.
    """
    t = np.atleast_1d(np.asarray(nodes, dtype=float))
    m = t.size
    if not np.all(np.isfinite(t)):
        raise InvalidNodesError("nodes must be finite")
    if np.any(t == 0.0):
        raise InvalidNodesError("nodes must be nonzero")
    if np.unique(t).size != m:
        raise InvalidNodesError("nodes must be distinct")
    numer = np.zeros((m, m + 1))
    numer[:, 1] = 1.0  # the factor x; column 0 (the intercept) stays +0.0
    denom = t.copy()
    for j in range(m):
        # coefficient q of (x - t_j) * row is row[q - 1] + row[q] * (-t_j);
        # above a row's current degree both terms are zero and so is the sum
        kept = numer[j].copy()
        numer[:, 1:] = numer[:, :-1] + numer[:, 1:] * -t[j]
        numer[j] = kept
        diff = t - t[j]
        diff[j] = 1.0  # skips the j-th denominator exactly
        denom *= diff
    numer[:, 1:] /= denom[:, None]
    return numer


def lagrange_no_intercept(nodes, i: int) -> Polynomial:
    """i-th intercept-free Lagrange basis polynomial (i is 1-based).

    Row i - 1 of :func:`lagrange_basis_no_intercept`, which defines the
    polynomial, validates the nodes (finite, distinct and nonzero) and
    documents the bit-identity with the per-node product.
    """
    basis = lagrange_basis_no_intercept(nodes)
    m = basis.shape[0]
    if not 1 <= i <= m:
        raise ValueError(f"node index {i} out of range 1..{m}")
    return Polynomial(basis[i - 1])
