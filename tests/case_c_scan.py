"""Test-only scan of every case-C drop in double precision.

``solve`` tries two of the n + 1 single-point drops of T_n's extrema in
case C (odd n and p), the endpoint pair's 2k + 1 and the central pair's k,
on the claim that no other drop is ever optimal. :func:`passing_drops`
tries all n + 1 with the solver's own pieces (its cached case geometry,
``_lagrange_columns`` and ``_passing``, the sign test ``solve`` runs), so
the claim is checked by ``solve``'s own code. Imported by
``test_solver.py`` (every odd n <= 61) and by a CI step (every odd
n <= 101).
"""

import numpy as np

from polydesign import DesignProblem, solve
from polydesign.polynomial import power_coefficients
from polydesign.solver import CASE_C, _geometry, _lagrange_columns, _passing


def passing_drops(n: int, p: int) -> set:
    """The drops i, indices into T_n's ascending extrema, that pass
    ``solve``'s test: on the other n extrema every a_{j,p} is nonzero and
    sign(a_{j,p}) * T_n(t_j) is the same for every j."""
    case = _geometry(n, CASE_C)
    every = np.arange(n + 1)
    kept = np.array([np.delete(every, drop) for drop in every])
    a = _lagrange_columns(case.g[kept], power_coefficients(n, p))
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
