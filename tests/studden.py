"""Test-only reference: Studden's c-optimal design for x**p with intercept.

Studden (1968, Ann. Math. Stat. 39) gives the design minimizing the
variance of the coefficient of x**p in the degree-n model with intercept.
It sits on the m + 1 extrema x_j = cos(j pi / m) of T_m, with m = n if
n - p is even and m = n - 1 otherwise, and its weights are
|[x**p] L_j| / sum_i |[x**p] L_i|, L_j the Lagrange basis polynomial of
x_j. At Chebyshev extrema L_j has the closed-form Chebyshev coefficients

    [T_k] L_j = 2 cos(j k pi / m) / (m cbar_j cbar_k),   k = 0..m,

with cbar = 2 at j, k in {0, m} and 1 otherwise (the discrete cosine
transform of the unit vector), and [x**p] T_k is an integer. So the weights
come from a cosine sum and share no linear algebra with the library.

For odd p the intercept-free model has the same optimum: Studden's design
is the case-B design, and in case C the midpoint of the two designs. For
even p it is not optimal there. Imports numpy and math alone, nothing from the
library it checks.
"""

import math

import numpy as np


def _power_of_chebyshev(m: int, p: int) -> np.ndarray:
    # [x**p] T_k for k = 0..m: (-1)**r 2**(p - 1) k C(k - r, r) / (k - r),
    # k = p + 2r, exact in integers (p >= 1, so T_0 contributes nothing)
    out = np.zeros(m + 1)
    for k in range(p, m + 1, 2):
        r = (k - p) // 2
        out[k] = (-1) ** r * 2 ** (p - 1) * k * math.comb(k - r, r) // (k - r)
    return out


def studden_design(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Support (ascending) and weights of Studden's design for (n, p)."""
    m = n if (n - p) % 2 == 0 else n - 1
    j = np.arange(m + 1)
    cbar = np.where((j == 0) | (j == m), 2.0, 1.0)
    lagrange = 2.0 * np.cos(np.outer(j, j) * np.pi / m) / (m * np.outer(cbar, cbar))
    a = lagrange @ _power_of_chebyshev(m, p)
    # sin((m - 2j) pi / 2m) = cos(j pi / m), exactly symmetric and 0 at j = m / 2
    support = np.sin((m - 2 * j) * np.pi / (2 * m))
    return support[::-1], (np.abs(a) / np.abs(a).sum())[::-1]
