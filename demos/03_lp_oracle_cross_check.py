# Cross-checking the closed forms against a linear-programming oracle.
#
# The optimal variance equals 1/t**2 where t is the largest scaling with
# t * e_p inside the convex hull of {+-f(x)}. On a finite grid that is a
# plain LP, solved here with an entirely different code path than the
# closed-form solver, so agreement is strong evidence both are right.

import math

import numpy as np

from polydesign import DesignProblem, Polynomial, coefficient, elfving_lp, oracle_grid, oracle_variance, solve

problem = DesignProblem(n=4, p=2)
result = solve(problem)
print(f"solver variance for degree 4, coefficient 2: {result.variance:.12f}")
print(f"(exactly 12 + 8 sqrt(2) = {12 + 8 * math.sqrt(2):.12f})")
print()

# With the two point families of the degree in the grid, the extrema of
# T_s and E_2k that hold every optimal support, the LP lands on the
# continuous optimum without being told the solver's answer; restricted to
# a pure uniform grid it can only be larger, and tightens as the grid refines.
included = oracle_variance(problem, grid_size=2001, include_solver_support=True)
print(f"LP with support in grid:   {included:.12f}   gap {included - result.variance:+.2e}")
for size in (101, 1001, 10001):
    free = oracle_variance(problem, grid_size=size, include_solver_support=False)
    print(f"LP on uniform grid {size:>6}: {free:.12f}   gap {free - result.variance:+.2e}")
print()

# The LP also returns the design it found and a dual certificate vector v
# with |v . g(x)| <= 1 on the grid, in the basis g_j = T_j - T_j(0) -- the
# basis the closed-form certificate is stored in, so both are Polynomials.
lp = elfving_lp(problem, oracle_grid(2001, problem))
dual = Polynomial(lp.dual)
print("LP design support:", np.round(lp.design.support, 6))
print("LP design weights:", np.round(lp.design.weights, 6))
print("dual certificate coefficient of x**4:", round(coefficient(dual, problem.n), 6))
print("certificate from the solver:         ", round(coefficient(result.certificate, problem.n), 6))
