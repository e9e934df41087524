"""Brute-force optimum via a linear program over a discretized design space.

The geometric dual of the certificate conditions: the optimal variance for
coefficient p equals 1/t**2, where t is the largest scaling such that
t * e_p lies in the convex hull of {+-f(x) : x in the design space}. By LP
duality 1/t is the optimum of a program in n free variables u,

    maximize u_p   s.t.   |u . f(x_j)| <= 1   for every grid point x_j,

whose optimal u is a certificate vector and whose constraint marginals are
the optimal design's masses. Monomial columns f(x_j) are too ill
conditioned for HiGHS beyond n = 10, so the program runs in the basis
g_j = T_j - T_j(0), j = 1..n, which spans the same space: g(x) = A f(x)
with A[j, q] the coefficient of x**q in T_j, so with u = A^T v it reads

    maximize d_p . v   s.t.   |v . g(x_j)| <= 1,   d_p = A e_p.

The grid has thousands of points but only about n + 1 constraints are
active, so the program is solved by exchange (the Remez exchange applied to
Elfving's problem): solve it on a small active set of grid points, evaluate
|v . g| on the whole grid, add every local maximum that violates the bound,
and repeat. As Remez's exchange starts from the Chebyshev alternant, the
first active set holds the grid points nearest the two point families,
the extrema of T_s (s the largest odd number <= n), where the optimal
designs for odd p sit, and of E_2k (k = n // 2), where those for even p
sit (on grid 10001 every problem with n <= 30 ends after one LP); evenly
spaced points join them to keep the first LP bounded. Where the optimal v is not unique, its parity-matched part -- v
with the entries of the other parity than p zeroed -- has the same
objective and is often already feasible, which ends the exchange early.

Because grid designs are a subset of all designs, the grid optimum can only
be larger than the continuous one; with the true support included in the
grid the two coincide. This route never touches the closed-form solver's
weight formula, so it is an independent numerical check.

SciPy, whose HiGHS solver runs the LPs, is imported on the first call of
:func:`elfving_lp` only; the rest of the library needs numpy alone, and
importing SciPy would triple its start-up time. So is :mod:`logging`, for
the exchange's debug records: ``scipy.optimize`` loads it anyway, while at
the top of this module it would add about 5 ms to ``import polydesign``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Design, DesignProblem
from .errors import NumericalDegeneracyError, OracleFailureError, is_integer
from .points import s_points, t_points
from .polynomial import intercept_free_vander, power_coefficients

#: uniform grid size used when none is given
DEFAULT_GRID_SIZE = 2001

#: weights below this threshold are dropped from the reported design
WEIGHT_CUTOFF = 1e-10

#: the exchange stops once no grid point has |v . g(x)| above 1 + this
EXCHANGE_TOL = 1e-10

#: exchange steps (small LPs solved) before the oracle gives up
MAX_EXCHANGES = 100

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Grid-restricted optimum: variance = (d_p . dual)**2.

    ``dual`` is the certificate vector v of the final LP in the basis
    g_j = T_j - T_j(0) of :func:`~polydesign.polynomial.intercept_free_vander`,
    the vector type of d_p and of a :class:`~polydesign.polynomial.Polynomial`'s
    coefficients, so ``Polynomial(dual)`` is the LP's certificate polynomial;
    d_p = ``power_coefficients(n, p)``.
    On the grid, |dual . g(x_j)| <= 1 + EXCHANGE_TOL when the exchange
    stopped on a feasible v or v_sym. When it stopped because no new point
    violates the bound, the excess sits at active points and is the final
    LP's: at most HiGHS's primal feasibility tolerance (1e-10 from
    ``_LP_OPTIONS``, or its default 1e-7 after a retry) plus
    2e-13 * sum_i |dual_i|, which covers the rounding of dual . g. On
    grid 2001 the excess stays below 3e-12 for every n <= 30; on the
    31-point uniform grid at (29, 7), where |dual| reaches 2.3e5 and the
    LP is retried, it is 1.6e-9. ``iterations`` counts the LPs the exchange
    solved and ``active_size`` the grid points in the final one.

    ``design`` holds the final LP's marginals above ``WEIGHT_CUTOFF``. On
    grids as sparse as that one it need not be admissible at
    :data:`~polydesign.design.ADMISSIBLE_TOL`: at (29, 7) on 31 uniform
    points it has 28 points and ``phi_c`` of it is inf, while ``variance``
    matches a primal LP in the same basis to 1.1e-10. ``variance`` is the
    result; the design is its witness only where it is admissible.
    """

    variance: float
    design: Design
    dual: np.ndarray
    iterations: int
    active_size: int


def _peaks(level: np.ndarray) -> np.ndarray:
    """Mask of the local maxima of each row of ``level`` along the grid."""
    edge = np.full((level.shape[0], 1), -np.inf)
    padded = np.hstack([edge, level, edge])
    return (level >= padded[:, :-2]) & (level >= padded[:, 2:])


def elfving_lp(problem: DesignProblem, grid) -> OracleResult:
    """Solve the certificate LP over the given grid by exchange.

    The program is solved in the basis g_j = T_j - T_j(0), j = 1..n, which
    spans the same space as f(x) but stays well conditioned up to n = 30:
    with u = A^T v it reads ``maximize d_p . v s.t. |v . g(x)| <= 1``, the
    objective scaled by 1 / max|d_p|. HiGHS solves it on the active points,
    first the grid points nearest the extrema ``s_points((n + 1) // 2)`` of
    T_s, s the largest odd number <= n, and ``t_points(k)`` of E_2k,
    k = n // 2 (both {-1, 1} at n = 1), and 2n + 2 evenly spaced ones (both
    ends included; a grid of 2n + 2 points or fewer starts from all of
    them). The start depends on n alone, never on the closed-form solution.
    Each LP also yields the parity candidate v_sym: v with the entries of
    parity j != p (mod 2) zeroed. g_j has the parity of j and d_p vanishes
    on those entries, so v_sym has the same objective. Where the optimal v
    is not unique (even p, odd n), HiGHS returns a vertex that violates the
    grid while v_sym does not; without v_sym the exchange would approach
    the optimum one LP at a time. The exchange stops as soon as v or v_sym
    has no local maximum of |. g| on the grid above 1 + ``EXCHANGE_TOL`` and
    reports that one, v first; otherwise the violating peaks of both join
    the active set. A point feasible on the grid that attains the active
    LP's optimum is optimal on the grid, so the final LP's inequality
    marginals are an optimal design, from which the design is read. Each
    step logs one DEBUG record to this module's logger: the step, the
    active-set size, the number of new points and which of v, v_sym stood.

    Dropping grid constraints can only raise the objective, so the reported
    variance (d_p . v)**2 is never below the grid optimum (beyond HiGHS's
    tolerances) and at most about 2 * EXCHANGE_TOL relative above it.

    Grids of n + 2 or more points always keep the LP bounded; sparser
    grids are accepted (the target direction may still be representable)
    and surface as :class:`OracleFailureError` when they are not, as do a
    HiGHS failure, a d_p beyond the double range (p > 1024) and
    ``MAX_EXCHANGES`` steps without convergence. On very sparse grids the
    optimal v can be so large (|v| ~ 2e5 on 31 points at n = 29) that the
    rounding of v . g exceeds ``_LP_OPTIONS``' 1e-10; when HiGHS reports
    such numerical difficulties the LP is solved once more at its default
    tolerances (1e-7), a retry that grid 10001 never needs.
    """
    g = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("grid points must be finite")
    g = np.unique(g)
    n, p = problem.n, problem.p
    if g.size < 2:
        raise ValueError("grid must contain at least two points")
    if g[0] < -1.0 or g[-1] > 1.0:
        raise ValueError("grid must lie in [-1, 1]")
    if not (np.any(g < 0.0) and np.any(g > 0.0)):
        raise ValueError("grid must contain a negative and a positive point")

    basis = intercept_free_vander(g, n).T  # n x J, column j is g(x_j)
    try:
        d = power_coefficients(n, p)
    except NumericalDegeneracyError as exc:  # from p = 1025 on
        raise OracleFailureError(str(exc)) from exc
    import logging  # imported here, as SciPy is: see the module docstring
    from scipy.optimize import linprog

    log = logging.getLogger(__name__)

    cost = -d / np.abs(d).max()  # maximize d_p . v, scaled to unit size
    off_parity = np.arange(1, n + 1) % 2 != p % 2
    # the first active set, see the docstring; t_points(1) = s_points(1) = {-1, 1}
    extrema = np.concatenate([s_points((n + 1) // 2), t_points(max(n // 2, 1))])
    right = np.searchsorted(g, extrema).clip(1, g.size - 1)
    nearest = np.where(extrema - g[right - 1] <= g[right] - extrema, right - 1, right)
    active = np.union1d(np.linspace(0, g.size - 1, 2 * n + 2).round().astype(int), nearest)
    for iteration in range(1, MAX_EXCHANGES + 1):
        rows = basis[:, active].T
        lp = {"A_ub": np.vstack([rows, -rows]), "b_ub": np.ones(2 * active.size),
              "bounds": (None, None), "method": "highs"}
        res = linprog(cost, **lp, options=_LP_OPTIONS)
        if res.status == 4:  # numerical difficulties, see the docstring
            res = linprog(cost, **lp)
        if not res.success:  # an unbounded v means e_p is not representable
            raise OracleFailureError(f"LP did not terminate with an optimum: {res.message}")
        v = np.asarray(res.x, dtype=float)
        candidates = np.stack([v, np.where(off_parity, 0.0, v)])
        level = np.abs(candidates @ basis)
        over = _peaks(level) & (level > 1.0 + EXCHANGE_TOL)
        feasible = ~over.any(axis=1)
        new = np.setdiff1d(np.flatnonzero(over.any(axis=0)), active)
        log.debug(
            "exchange step %d: %d active points, %d new, stood: %s",
            iteration, active.size, new.size,
            "v" if feasible[0] else "v_sym" if feasible[1] else "neither",
        )
        # with no new point, v exceeds the bound only at active points, by
        # HiGHS's feasibility tolerance, and stands as the optimum
        if feasible.any() or new.size == 0:
            dual = candidates[int(feasible.argmax())]
            break
        active = np.union1d(active, new)
    else:
        raise OracleFailureError(f"exchange did not converge in {MAX_EXCHANGES} steps")

    u_p = float(d @ dual)
    marginals = np.abs(np.asarray(res.ineqlin.marginals, dtype=float))
    mass = marginals[: active.size] + marginals[active.size :]
    mass = mass / mass.sum()
    keep = mass > WEIGHT_CUTOFF
    weights = mass[keep]
    return OracleResult(
        variance=u_p * u_p,
        design=Design(g[active[keep]], weights / weights.sum()),
        dual=dual,
        iterations=iteration,
        active_size=int(active.size),
    )


def oracle_grid(grid_size: int, designs=()) -> np.ndarray:
    """``grid_size`` evenly spaced points on [-1, 1] united with the supports of ``designs``."""
    if not is_integer(grid_size) or grid_size < 2:
        raise ValueError(f"grid must have at least 2 points, given as an integer, got {grid_size!r}")
    grid = np.linspace(-1.0, 1.0, grid_size)
    supports = [d.support for d in designs]
    return np.union1d(grid, np.concatenate(supports)) if supports else grid


def oracle_variance(
    problem: DesignProblem,
    grid_size: int = DEFAULT_GRID_SIZE,
    include_solver_support: bool = False,
) -> float:
    """Grid-restricted optimal variance on :func:`oracle_grid`.

    With ``include_solver_support`` the closed-form solver's support points
    are united into the grid, making the LP reproduce the continuous
    optimum exactly (up to LP tolerance); without them the result is an
    upper bound that tightens as the grid is refined.
    """
    designs = ()
    if include_solver_support:
        from .solver import solve  # local import: solver is the object under test

        designs = solve(problem).designs
    return elfving_lp(problem, oracle_grid(grid_size, designs)).variance
