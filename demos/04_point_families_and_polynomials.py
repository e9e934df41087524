# The support-point families behind the closed-form designs.
#
# All optimal supports are extremal points of equioscillating polynomials:
# Chebyshev polynomials of the first kind for odd coefficient indices, and
# an even composed polynomial for even indices. This script shows the two
# families and the equioscillation that makes them work. For odd p the
# certificate is T_s, s the largest odd number <= n, so the Chebyshev
# family of order k carries T_{2k-1} (even n) and the one of order k + 1
# carries T_{2k+1} (odd n, where one extremum is then dropped).

import numpy as np

from polydesign import Polynomial, coefficient, e_polynomial, s_points, t_points

np.set_printoptions(precision=6, suppress=True)

k = 2
s = s_points(k)      # 2k extrema of the degree-(2k-1) Chebyshev polynomial
x = s_points(k + 1)  # 2k+2 extrema of the degree-(2k+1) Chebyshev polynomial
t = t_points(k)      # 2k extrema of the even degree-2k polynomial

print(f"k = {k}")
print("s_points(k):    ", s)
print("s_points(k + 1):", x)
print("t_points(k):    ", t, "(inner points are +-sqrt(sqrt(2) - 1))")
print()

# Values at the family points alternate between +1 and -1. Polynomials are
# held in the basis g_j = T_j - T_j(0); for odd j, g_j is T_j itself.
t3 = Polynomial([0.0, 0.0, 1.0])
t5 = Polynomial([0.0, 0.0, 0.0, 0.0, 1.0])
e4 = e_polynomial(k)
print("T3 at s_points(k):    ", np.round(t3(s), 12))
print("T5 at s_points(k + 1):", np.round(t5(x), 12))
print("E4 at t_points(k):    ", np.round(e4(t), 12), "(pairs across the center)")
print()

# The even polynomial is a Chebyshev polynomial composed with a quadratic
# that maps [-1, 1] onto the interval where the oscillation happens. Its
# Chebyshev coefficients sit at the even indices; its monomial ones are
# (3 + 2 sqrt(2)) x**4 - (2 + 2 sqrt(2)) x**2:
print("E4 Chebyshev coefficients c_1..c_4:", e4.coeffs)
print("E4 monomial coefficients x..x**4:  ", np.array([coefficient(e4, q) for q in range(1, 5)]))
# Its maximum on [-1, 1] is taken at the endpoints and the critical points:
points, values = e4.peaks()
print("E4 peaks:", np.sort(points), " max |E4|:", np.abs(values).max())
print()

# Families are exactly symmetric (the negative half is a mirrored copy)
# and always contain the endpoints:
for points, name in ((s, "s_points(k)"), (x, "s_points(k + 1)"), (t, "t_points(k)")):
    mirrored = np.all(points + points[::-1] == 0.0)
    print(f"{name}: endpoints ({points[0]}, {points[-1]}), exact mirror symmetry: {mirrored}")
