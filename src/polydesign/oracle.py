"""Brute-force optimum via a linear program over a discretized design space.

The geometric dual of the certificate conditions: the optimal variance for
coefficient p equals 1/t**2, where t is the largest scaling such that
t * e_p lies in the convex hull of {+-f(x) : x in the design space}. By LP
duality 1/t is the optimum of a program in n free variables u,

    maximize u_p   s.t.   |u . f(x_j)| <= 1   for every grid point x_j,

whose optimal u is a certificate vector and whose constraint marginals are
the optimal design's masses. The grid has thousands of points but only
about n + 1 constraints are active, so the program is solved by exchange
(the Remez exchange applied to Elfving's problem): solve it on a small
active set of grid points, evaluate |u . f| on the whole grid, add every
local maximum that violates the bound, and repeat.

Because grid designs are a subset of all designs, the grid optimum can only
be larger than the continuous one; with the true support included in the
grid the two coincide. This route never touches the closed-form solver's
weight formula, so it is an independent numerical check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .design import Design, DesignProblem, regression_vector
from .errors import OracleFailureError

#: uniform grid size used when none is given
DEFAULT_GRID_SIZE = 2001

#: weights below this threshold are dropped from the reported design
WEIGHT_CUTOFF = 1e-10

#: the exchange stops once no grid point has |u . f(x)| above 1 + this
EXCHANGE_TOL = 1e-10

#: exchange steps (small LPs solved) before the oracle gives up
MAX_EXCHANGES = 100

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Grid-restricted optimum: variance = 1 / scale_t**2.

    ``dual`` is the certificate vector u of the final LP; it satisfies
    |dual . f(x_j)| <= 1 + EXCHANGE_TOL on the grid and
    dual[p-1] * scale_t = 1. ``iterations`` counts the LPs the exchange
    solved and ``active_size`` the grid points in the final one.
    """

    variance: float
    design: Design
    scale_t: float
    grid_size: int
    dual: np.ndarray
    iterations: int
    active_size: int


def elfving_lp(problem: DesignProblem, grid) -> OracleResult:
    """Solve the certificate LP over the given grid by exchange.

    Starts from 2n + 2 evenly spaced grid points (both ends included),
    solves ``maximize u_p s.t. |u . f(x)| <= 1`` on the active points with
    HiGHS, and adds every local maximum of |u . f| on the grid above
    1 + ``EXCHANGE_TOL`` until there is none. The design is read from the
    final LP's inequality marginals.

    Dropping grid constraints can only raise u_p, and u / max|u . f| is
    feasible on the whole grid, so the reported variance u_p**2 is never
    below the grid optimum (beyond HiGHS's tolerances) and at most about
    2 * EXCHANGE_TOL relative above it.

    Grids of n + 2 or more points always keep the LP bounded; sparser
    grids are accepted (the target direction may still be representable)
    and surface as :class:`OracleFailureError` when they are not, as do a
    HiGHS failure and ``MAX_EXCHANGES`` steps without convergence.
    """
    g = np.unique(np.asarray(grid, dtype=float))
    n, p = problem.n, problem.p
    if g.size < 2:
        raise ValueError("grid must contain at least two points")
    if g[0] < -1.0 or g[-1] > 1.0:
        raise ValueError("grid must lie in [-1, 1]")
    if not (np.any(g < 0.0) and np.any(g > 0.0)):
        raise ValueError("grid must contain a negative and a positive point")

    powers = regression_vector(g, n)  # n x J
    cost = np.zeros(n)
    cost[p - 1] = -1.0  # maximize u_p
    active = np.unique(np.linspace(0, g.size - 1, 2 * n + 2).round().astype(int))
    for iteration in range(1, MAX_EXCHANGES + 1):
        rows = powers[:, active].T
        res = linprog(
            cost,
            A_ub=np.vstack([rows, -rows]),
            b_ub=np.ones(2 * active.size),
            bounds=(None, None),
            method="highs",
            options=_LP_OPTIONS,
        )
        if not res.success:  # an unbounded u means e_p is not representable
            raise OracleFailureError(f"LP did not terminate with an optimum: {res.message}")
        u = np.asarray(res.x, dtype=float)
        level = np.abs(u @ powers)
        peak = np.r_[True, level[1:] >= level[:-1]] & np.r_[level[:-1] >= level[1:], True]
        new = np.setdiff1d(np.flatnonzero(peak & (level > 1.0 + EXCHANGE_TOL)), active)
        if new.size == 0:
            break
        active = np.union1d(active, new)
    else:
        raise OracleFailureError(f"exchange did not converge in {MAX_EXCHANGES} steps")

    u_p = float(u[p - 1])
    marginals = np.abs(np.asarray(res.ineqlin.marginals, dtype=float))
    mass = marginals[: active.size] + marginals[active.size :]
    mass = mass / mass.sum()
    keep = mass > WEIGHT_CUTOFF
    weights = mass[keep]
    return OracleResult(
        variance=u_p * u_p,
        design=Design(g[active[keep]], weights / weights.sum()),
        scale_t=1.0 / u_p,
        grid_size=int(g.size),
        dual=u,
        iterations=iteration,
        active_size=int(active.size),
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
