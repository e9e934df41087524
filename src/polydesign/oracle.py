"""Brute-force optimum via a linear program over a discretized design space.

The geometric dual of the certificate conditions: the optimal variance for
coefficient p equals 1/t**2, where t is the largest scaling such that
t * e_p lies in the convex hull of {+-f(x) : x in the design space}. Over a
finite grid this is a linear program in signed atom masses:

    maximize t
    s.t.  sum_j (lam+_j - lam-_j) f(x_j) = t e_p,
          sum_j (lam+_j + lam-_j) = 1,      lam+, lam- >= 0.

Because grid designs are a subset of all designs, the grid optimum can only
be larger than the continuous one; with the true support included in the
grid the two coincide. This route never touches the closed-form solver's
weight formula, so it is an independent numerical check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .design import Design, DesignProblem
from .errors import OracleFailureError

#: uniform grid size used when none is given
DEFAULT_GRID_SIZE = 2001

#: weights below this threshold are dropped from the reported design
WEIGHT_CUTOFF = 1e-10

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Grid-restricted optimum: variance = 1 / scale_t**2.

    ``dual`` is the certificate vector recovered from the LP duals; it
    satisfies |dual . f(x_j)| <= 1 on the grid and dual[p-1] * scale_t = 1
    at the optimum.
    """

    variance: float
    design: Design
    scale_t: float
    grid_size: int
    dual: np.ndarray


def elfving_lp(problem: DesignProblem, grid) -> OracleResult:
    """Solve the signed-atom scaling LP over the given grid.

    Grids of n + 2 or more points always keep the LP feasible; sparser
    grids are accepted (the target direction may still be representable)
    and surface as :class:`OracleFailureError` when they are not.
    """
    g = np.unique(np.asarray(grid, dtype=float))
    n, p = problem.n, problem.p
    if g.size < 2:
        raise ValueError("grid must contain at least two points")
    if g[0] < -1.0 or g[-1] > 1.0:
        raise ValueError("grid must lie in [-1, 1]")
    if not (np.any(g < 0.0) and np.any(g > 0.0)):
        raise ValueError("grid must contain a negative and a positive point")

    j = g.size
    powers = np.vstack([g**q for q in range(1, n + 1)])  # n x j
    a_eq = np.zeros((n + 1, 2 * j + 1))
    a_eq[:n, :j] = powers
    a_eq[:n, j : 2 * j] = -powers
    a_eq[p - 1, -1] = -1.0
    a_eq[n, : 2 * j] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    cost = np.zeros(2 * j + 1)
    cost[-1] = -1.0  # maximize t

    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise OracleFailureError(f"LP did not terminate with an optimum: {res.message}")
    t = float(res.x[-1])
    if t <= 0.0:
        raise OracleFailureError("LP returned a nonpositive scaling")

    mass = res.x[:j] + res.x[j : 2 * j]
    keep = mass > WEIGHT_CUTOFF
    weights = mass[keep]
    design = Design(g[keep], weights / weights.sum())

    duals = np.asarray(res.eqlin.marginals, dtype=float)[:n]
    if duals[p - 1] < 0.0:  # marginal sign convention differs across solvers
        duals = -duals
    return OracleResult(
        variance=1.0 / (t * t),
        design=design,
        scale_t=t,
        grid_size=int(g.size),
        dual=duals / t,
    )


def oracle_variance(
    problem: DesignProblem,
    grid_size: int = DEFAULT_GRID_SIZE,
    include_solver_support: bool = False,
) -> float:
    """Grid-restricted optimal variance on a uniform grid.

    With ``include_solver_support`` the closed-form solver's support points
    are united into the grid, making the LP reproduce the continuous
    optimum exactly (up to LP tolerance); without them the result is an
    upper bound that tightens as the grid is refined.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    grid = np.linspace(-1.0, 1.0, grid_size)
    if include_solver_support:
        from .solver import solve  # local import: solver is the object under test

        result = solve(problem)
        grid = np.union1d(grid, np.concatenate([d.support for d in result.designs]))
    return elfving_lp(problem, grid).variance
