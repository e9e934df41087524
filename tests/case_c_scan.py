"""Test-only full-size Lagrange solve, and a scan of every case-C drop.

:func:`lagrange_columns` solves for the coefficients a_{i,p} of x**p in
the intercept-free Lagrange basis of a support directly, one m x m system
per support in the basis g_j = T_j - T_j(0). ``solve`` never forms that
system: it solves the half-size system on the positive extrema and, in
case C, reads the two designs off the ends of a segment. So this is the
full-size reference for the closed form w_i = |a_{i,p}| / sum_j |a_{j,p}|.

:func:`passing_drops` tries every one of the n + 1 single-point drops of
T_n's extrema in case C (odd n and p) with that solve and the solver's
sign test ``_passing``. Exactly the mirror pair of extrema that ``solve``
names must pass: an independent check of ``solve``'s ratio test, which
decides the pair from the segment alone. Imported by ``test_solver.py``
(every odd n <= 61) and by a CI step (every odd n <= 101).
"""

import numpy as np

from polydesign import DesignProblem, NumericalDegeneracyError, solve
from polydesign.polynomial import power_coefficients
from polydesign.solver import CASE_C, _geometry, _passing


def lagrange_columns(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a_{i,p} for each support of a stack, in one solve.

    ``g`` holds the basis values of a (rows, m) stack of supports t,
    ``intercept_free_vander(t, m)``. V a = e_p with V[q, i] = t_i**q becomes
    G a = d_p in the well-conditioned basis g_j = T_j - T_j(0), j = 1..m:
    G[j, i] = g_j(t_i), d_p[j] = the coefficient of x**p in T_j: the first
    m entries of ``d = power_coefficients(n, p)``, n >= m.
    """
    m = g.shape[-1]
    target = np.broadcast_to(d[:m, None], (*g.shape[:-1], 1))
    try:
        return np.linalg.solve(np.swapaxes(g, -1, -2), target)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError("singular system for the target coefficient") from exc


def passing_drops(n: int, p: int) -> set:
    """The drops i, indices into T_n's ascending extrema, that pass
    ``solve``'s sign test: on the other n extrema every a_{j,p} is nonzero
    and sign(a_{j,p}) * T_n(t_j) is the same for every j."""
    case = _geometry(n, CASE_C)
    every = np.arange(n + 1)
    kept = np.array([np.delete(every, drop) for drop in every])
    a = lagrange_columns(case.g[kept], power_coefficients(n, p))
    return set(_passing(a, case.values[kept]).tolist())


def solver_pair(n: int, p: int) -> set:
    """The two drops of the pair ``solve`` names for (n, p): 2k + 1 and 0
    (endpoint) or k and k + 1 (central), k = n // 2; {0, 1} at n = 1."""
    k = n // 2
    pair = solve(DesignProblem(n, p)).case_c_pair
    return {"endpoint": {0, 2 * k + 1}, "central": {k, k + 1}}[pair]


def mismatches(degrees) -> list:
    """(n, p, passing drops, solve's pair) for every odd p of each odd n in
    ``degrees`` where the passing drops are not exactly solve's pair."""
    found = []
    for n in degrees:
        for p in range(1, n + 1, 2):
            passed, pair = passing_drops(n, p), solver_pair(n, p)
            if passed != pair:
                found.append((n, p, sorted(passed), sorted(pair)))
    return found
