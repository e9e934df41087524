# Optimality certificates and independent verification.
#
# A design is optimal for coefficient p exactly when a certificate
# polynomial P with zero intercept satisfies |P| <= 1 on [-1, 1], touches
# +-1 at every support point, and reproduces the unit vector e_p as
# h * sum_i f(x_i) w_i P(x_i). The optimal variance is then h**2. The
# verifier checks all of this numerically, the bound at the endpoints and
# the critical points of P, so any claimed design can be certified (or
# refuted) without trusting the solver.
#
# Certificates are held in the basis g_j = T_j - T_j(0), j = 1..n: their
# coefficients are Chebyshev coefficients, of at most 2 in magnitude, and
# coefficient() reads out the monomial ones.

import numpy as np

from polydesign import (
    Design,
    DesignProblem,
    Polynomial,
    certificate_for,
    coefficient,
    solve,
    verify,
)

np.set_printoptions(precision=6, suppress=True)

problem = DesignProblem(n=4, p=2)
result = solve(problem)
design = result.designs[0]
print("certificate Chebyshev coefficients c_1..c_4:", result.certificate.coeffs)
print("certificate monomial coefficients x..x**4: ",
      np.array([coefficient(result.certificate, q) for q in range(1, problem.n + 1)]))
report = verify(design, problem, result.certificate)
print(f"verdict: {report.verdict}")
print(f"  sup-norm on [-1, 1]:     {report.condition1_max:.12f}")
print(f"  identity residual:       {report.condition3_residual:.2e}")
print(f"  variance via h**2:       {report.variance_formula:.10f}")
print(f"  variance via phi_c:      {report.variance_matrix:.10f}")
print()

# The verifier accepts any harmless scaling of the certificate: a monic
# variant is rescaled to sup-norm one before conditions (2) and (3).
monic = Polynomial(result.certificate.coeffs / coefficient(result.certificate, problem.n))
report = verify(design, problem, monic)
print(f"monic certificate: verdict {report.verdict}, sup-norm {report.condition1_max:.6f}")

# An over-scaled certificate violates the sup-norm bound and is refused.
report = verify(design, problem, Polynomial(result.certificate.coeffs * 2.0))
print(f"doubled certificate: condition (1) ok? {report.condition1_ok}  verdict {report.verdict}")
print()

# Perturbing the optimal weights breaks the identity: the certificate
# conditions are sharp, not approximate.
w = design.weights.copy()
w[0] *= 1.05
w /= w.sum()
report = verify(Design(design.support, w), problem, result.certificate)
print(f"5% weight perturbation: verdict {report.verdict}, "
      f"identity residual {report.condition3_residual:.2e}")

# Certificates depend only on the problem, not on a solved design:
# (3, 2) has x**2 = g_2 / 2, padded to degree 3.
print("\ncanonical certificate for (3, 2):", certificate_for(DesignProblem(3, 2)).coeffs)
