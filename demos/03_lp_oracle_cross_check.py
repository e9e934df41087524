# Cross-checking the closed forms against a linear-programming oracle.
#
# The optimal variance equals 1/t**2 where t is the largest scaling with
# t * e_p inside the convex hull of {+-f(x)}. That is an LP with one
# constraint per point of the design space, solved here by exchange with an
# entirely different code path than the closed-form solver, so agreement
# is strong evidence both are right.

import math

import numpy as np

from polydesign import DesignProblem, Polynomial, coefficient, elfving_lp, oracle_variance, solve

problem = DesignProblem(n=4, p=2)
result = solve(problem)
print(f"solver variance for degree 4, coefficient 2: {result.variance:.12f}")
print(f"(exactly 12 + 8 sqrt(2) = {12 + 8 * math.sqrt(2):.12f})")
print()

# Searching all of [-1, 1] for the points where the LP's certificate
# exceeds 1, at the continuous extrema of the certificate polynomial, the
# exchange lands on the continuous optimum without being told the solver's
# answer; restricted to a uniform grid it can only be larger, and tightens
# as the grid refines.
included = oracle_variance(problem, include_solver_support=True)
print(f"LP on all of [-1, 1]:      {included:.12f}   gap {included - result.variance:+.2e}")
for size in (101, 1001, 10001):
    free = oracle_variance(problem, grid_size=size, include_solver_support=False)
    print(f"LP on uniform grid {size:>6}: {free:.12f}   gap {free - result.variance:+.2e}")
print()

# The LP also returns the design it found and a dual certificate vector v
# with |v . g(x)| <= 1 on [-1, 1], in the basis g_j = T_j - T_j(0) -- the
# basis the closed-form certificate is stored in, so both are Polynomials.
lp = elfving_lp(problem)
dual = Polynomial(lp.dual)
print("LP design support:", np.round(lp.design.support, 6))
print("LP design weights:", np.round(lp.design.weights, 6))
print("dual certificate coefficient of x**4:", round(coefficient(dual, problem.n), 6))
print("certificate from the solver:         ", round(coefficient(result.certificate, problem.n), 6))
