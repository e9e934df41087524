# Closed-form designs for estimating one coefficient of a polynomial
# regression through the origin on [-1, 1].
#
# For y = theta_1 x + ... + theta_n x**n, the design minimizing the
# variance of the least-squares estimate of theta_p is known in closed
# form: its support is the extremal-point set of an equioscillating
# polynomial, and its weights come from the coefficients of the
# intercept-free Lagrange basis of that support.

import numpy as np

from polydesign import DesignProblem, elfving_lp, solve

np.set_printoptions(precision=6, suppress=True)

# The cubic model: one problem per coefficient.
for p in (1, 2, 3):
    result = solve(DesignProblem(n=3, p=p))
    print(f"degree 3, coefficient {p} (case {result.case_tag}):")
    print(f"  optimal variance = h**2 = {result.variance:.6f}")
    for design in result.designs:
        print(f"  support {design.support}  weights {design.weights}")
    print()

# Odd coefficients in odd degree come in mirror pairs; everything else is
# unique. The variance for the leading coefficient of the cubic is 16:
# four observations are worth one unit of information on theta_3 only if
# placed at -1, 1/2, 1 (or the mirror image) with masses 1/12, 2/3, 1/4.

# The weights are |a_i| / sum_j |a_j| where a_i is the x**p coefficient of
# the i-th intercept-free Lagrange basis polynomial of the support. The
# optimal weights on any given support come from the LP oracle run with
# that support as its grid; on (-1, 1/2, 1) it reproduces the formula:
lp = elfving_lp(DesignProblem(n=3, p=3), [-1.0, 0.5, 1.0])
print("optimal weights on the support (-1, 1/2, 1) for p = 3:")
print(f"  support {lp.design.support}  weights {lp.design.weights}")
print(f"  variance = {lp.variance:.6f}")
print()

# A degenerate but valid case: degree 1. Either endpoint alone estimates
# the slope with unit variance.
result = solve(DesignProblem(n=1, p=1))
print("degree 1:", [(d.support.tolist(), d.weights.tolist()) for d in result.designs])

# Larger models work the same way; the variance grows fast with the
# coefficient index because high-degree monomials are hard to separate.
print("\nvariance table for degree 6:")
for p in range(1, 7):
    result = solve(DesignProblem(n=6, p=p))
    print(f"  p = {p}: variance = {result.variance:,.2f}")
