# Studden's design for the model with an intercept, scored without one.
#
# Studden (1968) gave the design that estimates the coefficient of x**p best
# in the degree-n model *with* an intercept. It sits on the m + 1 extrema
# cos(j pi / m) of T_m, m = n if n - p is even and n - 1 otherwise, with
# weights proportional to |[x**p] L_j|, L_j the Lagrange polynomial of the
# j-th extremum. At Chebyshev extrema L_j has the Chebyshev coefficients
#
#     [T_k] L_j = 2 cos(j k pi / m) / (m cbar_j cbar_k),   k = 0..m,
#
# with cbar = 2 at j, k in {0, m} and 1 otherwise. Through the origin the
# model loses its intercept, and the paper's point is that Studden's design
# then stays optimal for odd p but not for even p: its efficiency, the
# optimal variance over the variance it gives, is 1 for odd p and below 1
# for even p.

import numpy as np

from polydesign import Design, DesignProblem, Polynomial, coefficient, phi_c, solve


def studden_design(n, p):
    m = n if (n - p) % 2 == 0 else n - 1
    j = np.arange(m + 1)
    cbar = np.where((j == 0) | (j == m), 2.0, 1.0)
    lagrange = 2.0 * np.cos(np.outer(j, j) * np.pi / m) / (m * np.outer(cbar, cbar))
    # [x**p] T_k for k = 0..m; Polynomial's basis g_k = T_k - T_k(0) shares it
    power = [0.0] + [coefficient(Polynomial(np.eye(m)[k - 1]), p) for k in range(1, m + 1)]
    mass = np.abs(lagrange @ power)[::-1]
    keep = mass > 0.0
    return Design(np.cos(j * np.pi / m)[::-1][keep], mass[keep] / mass[keep].sum())


print("  n   p   efficiency of Studden's design without the intercept")
for n, p in [(3, 1), (3, 3), (4, 1), (4, 3), (29, 3), (30, 15),
             (4, 2), (4, 4), (6, 2), (30, 2)]:
    problem = DesignProblem(n, p)
    efficiency = solve(problem).variance / phi_c(studden_design(n, p), np.eye(n)[p - 1], n)
    print(f"{n:>3} {p:>3}   {efficiency:.3f}")
