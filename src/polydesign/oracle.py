"""Brute-force optimum via a linear program over [-1, 1] or a grid on it.

The geometric dual of the certificate conditions: the optimal variance for
coefficient p equals 1/t**2, where t is the largest scaling such that
t * e_p lies in the convex hull of {+-f(x) : x in the design space}. By LP
duality 1/t is the optimum of a program in n free variables u,

    maximize u_p   s.t.   |u . f(x)| <= 1   for every x in the design space,

whose optimal u is a certificate vector and whose constraint marginals are
the optimal design's masses. Monomial columns f(x) are too ill
conditioned for HiGHS beyond n = 10, so the program runs in the basis
g_j = T_j - T_j(0), j = 1..n, which spans the same space: g(x) = A f(x)
with A[j, q] the coefficient of x**q in T_j, so with u = A^T v it reads

    maximize d_p . v   s.t.   |v . g(x)| <= 1,   d_p = A e_p.

Only about n + 1 constraints are active, so the program is solved by
exchange (the Remez exchange applied to Elfving's problem): HiGHS solves it
on a small active set of points, the local maxima of |v . g| on the design
space that violate the bound join the set, and this repeats. The candidate
v . g is the certificate polynomial ``Polynomial(v)``. On a grid its maxima
are found among its values at the grid points; on all of [-1, 1] they are
the continuous extrema from :meth:`Polynomial.peaks`, the routine
``verify`` checks condition (1) with.

As Remez's exchange starts from the Chebyshev alternant, the first active
set holds the two point families of :func:`_families`, the extrema of T_s
(s the largest odd number <= n), where the optimal designs for odd p sit,
and of E_2k (k = n // 2), where those for even p sit. On [-1, 1] these are
the points themselves, at least n distinct nonzero ones, so the first LP
is bounded. On a grid they are the grid points nearest them, joined by
2n + 2 evenly spaced grid points, both ends included (a grid of 2n + 2
points or fewer starts from all of them). The start depends on n alone,
never on the closed-form solution. On [-1, 1] and on grid 10001 every
problem with n <= 30 then ends after one LP.

Each LP also yields the parity candidate v_sym: v with the entries of
parity j != p (mod 2) zeroed. g_j has the parity of j and d_p vanishes on
those entries, so v_sym has the same objective. Where the optimal v is not
unique (even p, odd n), HiGHS returns a vertex that violates the bound
while v_sym does not; without v_sym the exchange would approach the
optimum one LP at a time. The exchange stops as soon as v or v_sym has no
local maximum of |. g| above 1 + ``EXCHANGE_TOL`` (v_sym is searched only
if v does not stand) and reports that one, v first; otherwise the
violating peaks of both join the active set. A point feasible on the
design space that attains the active LP's optimum is optimal there, so the
absolute row duals of the final LP are an optimal design.

Because grid designs are a subset of all designs, the grid optimum can only
be larger than the continuous one. Dropping constraints can only raise the
objective, so the exchange's variance (d_p . v)**2 is never below the
optimum on its design space (beyond HiGHS's tolerances) and at most about
2 * ``EXCHANGE_TOL`` relative above it. On [-1, 1] it meets the continuous
optimum up to LP tolerance from any start that keeps its first LP bounded:
the start changes the number of LPs, not the result. No path here calls
the closed-form solver, so it is an independent numerical check.

The grid of :func:`oracle_variance`, ``np.linspace(-1, 1, grid_size)``, and
its preparation (validated, sorted, and the exchange's start found on it)
depend on (grid_size, n) alone, so :func:`_prepared_grid` does both once
per key and keeps the ``_GRID_CACHE_SIZE`` = 64 most recently used keys,
one per degree: enough for every n <= 30 on two grid sizes. An entry holds
the sorted points and the start, at most 8 * (grid_size + 4n + 4) bytes
(81 kB at grid 10001, n = 30). The cached arrays are read-only.
:func:`elfving_lp` prepares the grid it is given on every call; both
functions run the same exchange and return the same variance bit for bit.

The LPs run on HiGHS through the bindings SciPy bundles with it
(``scipy.optimize._highspy``, SciPy 1.15 and later). :func:`_solve_lp`
passes one boxed row -1 <= g(x) . v <= 1 per active point, where
``scipy.optimize.linprog``'s ``A_ub`` form needs two one-sided rows, and
skips linprog's checks of its inputs, options and result. Each thread keeps
one solver, a ``_Highs`` made on its first LP, in a
:class:`threading.local`, so threads share no solver and take no lock.
Before each LP, ``clear()`` resets the solver's model, solution and options
to a new solver's (``clearSolver()`` would keep the options, and a retry
would run at the first LP's tolerances instead of HiGHS's defaults), and
the model is passed as arrays through ``passModel``'s array overload rather
than built field by field as a ``HighsLp``. SciPy is imported on the first
LP only; the rest of the library needs numpy alone, and importing SciPy
would triple its start-up time. So is :mod:`logging`, for the exchange's
debug records: ``scipy.optimize`` loads it anyway, while at the top of this
module it would add about 5 ms to ``import polydesign``.

Each LP runs at HiGHS's defaults, output off, but for the values in
``_LP_OPTIONS``: feasibility tolerances 1e-10, and scaling off
(``simplex_scale_strategy`` 0): with it on, the boxed optimum exceeded the
bound at active points by up to 5.1e-10, above the 1e-10 feasibility
tolerance, at (100, 14), (100, 22) and (100, 76) on [-1, 1], and the
exchange needed a second LP there; with it off the excess is at most
2.7e-11 for every p at n = 100. An LP that ends neither optimal nor
unbounded is solved once more at HiGHS's defaults (tolerances 1e-7,
scaling on), output off. That retry is live on asymmetric grids: at
(13, 4) on ``np.linspace(-0.3, 1, 1001)`` three of the exchange's LPs end
with HiGHS's "Solve error" at the 1e-10 tolerances and are optimal at the
defaults (SciPy 1.17.1). No LP with n <= 30 needs it on [-1, 1], on a
uniform grid of n + 2, n + 3, 2n + 1, 31, 41, 2001 or 10001 points on
[-1, 1] or on the 2n + 2 or 1001 Chebyshev-Lobatto points, although the
optimal v can be large there (|v| ~ 2e5 on 31 points at (29, 7)).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import Design, DesignProblem
from .errors import NumericalDegeneracyError, OracleFailureError, is_integer
from .points import s_points, t_points
from .polynomial import Polynomial, intercept_free_vander, power_coefficients

#: uniform grid size used when none is given
DEFAULT_GRID_SIZE = 2001

#: weights below this threshold are dropped from the reported design
WEIGHT_CUTOFF = 1e-10

#: the exchange stops once no peak of |v . g(x)| is above 1 + this
EXCHANGE_TOL = 1e-10

#: exchange steps (small LPs solved) before the oracle gives up
MAX_EXCHANGES = 100

_GRID_CACHE_SIZE = 64

#: ``solver``: the thread's HiGHS solver, made on its first LP
_THREAD = threading.local()

#: the values that differ from HiGHS's defaults on the exchange's LPs, set
#: with output off; a retry sets output off alone (see the module docstring)
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_scale_strategy": 0,
}


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum on [-1, 1] or a grid: variance = (d_p . dual)**2.

    ``dual`` is the certificate vector v of the final LP in the basis
    g_j = T_j - T_j(0) of :func:`~polydesign.polynomial.intercept_free_vander`,
    the vector type of d_p and of a :class:`~polydesign.polynomial.Polynomial`'s
    coefficients, so ``Polynomial(dual)`` is the LP's certificate polynomial;
    d_p = ``power_coefficients(n, p)``. When the exchange stopped on a
    feasible v or v_sym, |Polynomial(dual)(x)| <= 1 + EXCHANGE_TOL at every
    grid point x, or on [-1, 1] at every point of ``Polynomial(dual).peaks()``,
    so there the supremum of |Polynomial(dual)| exceeds 1 + EXCHANGE_TOL by
    the rounding of the roots of its derivative alone; max |peaks()[1]| - 1
    is at most 7.1e-14 for n <= 30 and 1.5e-11 at n = 100.
    When it stopped because no new point violates the bound, the excess
    sits at active points and is the final LP's: at most HiGHS's primal
    feasibility tolerance (1e-10 from ``_LP_OPTIONS``, or its default 1e-7
    after a retry) plus 2e-13 * sum_i |dual_i|, which covers the rounding
    of dual . g. On grid 2001 the excess stays below 3e-12 for every
    n <= 30; on the 31-point uniform grid at (29, 7), where |dual| reaches
    2.3e5, it is 1.9e-9. ``iterations`` counts the LPs the exchange
    solved and ``active_size`` the points in the final one.

    ``design`` holds the final LP's absolute row duals above
    ``WEIGHT_CUTOFF``, normalized. ``variance`` is the result and the
    design its witness, as accurate as the LP's duals: at (29, 7) on 31
    uniform points the design has 29 points and ``phi_c`` of it is within
    6.8e-11 of ``variance``.
    """

    variance: float
    design: Design
    dual: np.ndarray
    iterations: int
    active_size: int


def _peaks(level: np.ndarray) -> np.ndarray:
    """Mask of the local maxima of ``level`` along the grid."""
    padded = np.concatenate([[-np.inf], level, [-np.inf]])
    return (level >= padded[:-2]) & (level >= padded[2:])


def elfving_lp(problem: DesignProblem, grid=None) -> OracleResult:
    """Solve the certificate LP by exchange on ``grid``, or on all of
    [-1, 1] if none is given; the module docstring states the method.

    ``grid`` holds finite points in [-1, 1], a negative and a positive one
    among them, in any order and with repeats; any other grid raises
    ``ValueError``. Grids of n + 2 or more points always keep the LP
    bounded; sparser grids are accepted (the target direction may still be
    representable) and surface as :class:`OracleFailureError` when they
    are not, as do a HiGHS failure, a d_p beyond the double range
    (first at (n, p) = (810, 560), and for every p > 1024) and
    ``MAX_EXCHANGES`` steps without convergence. HiGHS fails on some
    asymmetric grids: with n <= 30 the first failure comes at (13, 2) on
    ``np.linspace(-0.3, 1, 1001)`` and at (16, 2) on
    ``np.linspace(-1, 0.5, 1001)`` (SciPy 1.17.1), and the message names
    the exchange step and HiGHS's model status for the LP and its retry.

    On [-1, 1] the variance meets ``solve``'s within 3.1e-12 relative for
    every p at n = 100, and within 1.6e-13 for p in {1, 2, 3, n // 2,
    n // 2 + 1, n - 1, n} at n = 150 and 200, one LP each. On any design
    space it is never below the optimum there beyond HiGHS's tolerances,
    and at most about 2 * ``EXCHANGE_TOL`` relative above it. The design is read from the
    final LP's row duals.

    Each step logs one DEBUG record to this module's logger: the step, the
    active-set size, the number of new points and which of v, v_sym stood.
    New points are those that join the active set for the next LP, so the
    count is 0 on the last step, and the counts over all steps add up to
    ``active_size`` minus the start's size. An LP solved once more at
    HiGHS's defaults logs one more record, which names HiGHS's model
    status; neither [-1, 1] nor grid 10001 needs that retry for n <= 30.
    """
    optimum = _exchange(problem, *_prepare(grid, problem.n))
    mass = np.abs(optimum.marginals)
    mass = mass / mass.sum()
    keep = mass > WEIGHT_CUTOFF
    weights = mass[keep]
    return OracleResult(
        variance=optimum.variance,
        design=Design(optimum.active[keep], weights / weights.sum()),
        dual=optimum.dual,
        iterations=optimum.iterations,
        active_size=int(optimum.active.size),
    )


class _Grid(NamedTuple):
    start: np.ndarray  # the exchange's first active points, sorted
    # sorted, unique, in [-1, 1], with a negative and a positive point; None
    # for all of [-1, 1]
    points: np.ndarray | None


def _prepare(grid, n: int) -> _Grid:
    """Validate and sort ``grid`` and find the exchange's start on it, or
    for ``grid`` None take the start on [-1, 1], as the module docstring
    describes; depends on the degree n, not on p."""
    if grid is None:
        return _Grid(np.unique(_families(n)), None)
    g = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("grid points must be finite")
    g = np.unique(g)
    if g.size < 2:
        raise ValueError("grid must contain at least two points")
    if g[0] < -1.0 or g[-1] > 1.0:
        raise ValueError("grid must lie in [-1, 1]")
    if not (np.any(g < 0.0) and np.any(g > 0.0)):
        raise ValueError("grid must contain a negative and a positive point")
    extrema = _families(n)
    right = np.searchsorted(g, extrema).clip(1, g.size - 1)
    nearest = np.where(extrema - g[right - 1] <= g[right] - extrema, right - 1, right)
    evenly = np.linspace(0, g.size - 1, 2 * n + 2).round().astype(int)
    return _Grid(g[np.union1d(evenly, nearest)], g)


class _LPSolution(NamedTuple):
    status: object  # HiGHS's HighsModelStatus
    x: np.ndarray | None  # the optimal v, None unless status is kOptimal
    marginals: np.ndarray | None  # HiGHS's row duals, one per row, None unless status is kOptimal

    def __str__(self) -> str:
        """HiGHS's name for the status and its number, on the thread that
        solved the LP."""
        return f"{_THREAD.solver.modelStatusToString(self.status)} (HiGHS model status {int(self.status)})"


def _solve_lp(cost: np.ndarray, rows: np.ndarray, options: dict) -> _LPSolution:
    """``minimize cost . v s.t. -1 <= rows @ v <= 1``, v free, on this
    thread's HiGHS solver (see the module docstring).

    HiGHS gets one boxed row per row of ``rows`` (dense and row-wise; it
    drops the zero entries itself), free columns, its default options with
    output off, and ``options`` on top. ``marginals`` are HiGHS's row duals:
    negative at a row at +1, positive at a row at -1, and at an optimum they
    solve ``rows.T @ marginals = cost`` with
    ``cost . x = -sum |marginals|``. ``passModel``'s status goes unread:
    the arrays are finite and their shapes match, so HiGHS takes the model.
    A refused model would leave ``run()`` at ``kNotset``, which the
    exchange re-solves once and then reports as a failure.
    """
    from scipy.optimize._highspy import _core as highs  # see the module docstring

    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        solver = _THREAD.solver = highs._Highs()
    solver.clear()  # the model, the solution and the options
    for key, value in {"output_flag": False, **options}.items():
        solver.setOptionValue(key, value)
    num_row, num_col = rows.shape
    solver.passModel(
        num_col, num_row, rows.size,
        int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,  # no offset
        cost, np.full(num_col, -highs.kHighsInf), np.full(num_col, highs.kHighsInf),
        np.full(num_row, -1.0), np.ones(num_row),
        np.arange(0, rows.size, num_col, dtype=np.int32),  # each row's first entry
        np.tile(np.arange(num_col, dtype=np.int32), num_row), rows.ravel(),
        np.zeros(num_col, dtype=np.int32),  # all continuous; an empty array is an error
    )
    solver.run()
    model_status = solver.getModelStatus()
    if model_status != highs.HighsModelStatus.kOptimal:
        return _LPSolution(model_status, None, None)
    solution = solver.getSolution()
    return _LPSolution(model_status, np.array(solution.col_value), np.array(solution.row_dual))


class _Optimum(NamedTuple):
    variance: float
    dual: np.ndarray
    active: np.ndarray  # the final LP's points, sorted
    marginals: np.ndarray  # the final LP's row duals, one per active point
    iterations: int


def _search(candidates: tuple[np.ndarray, ...], grid: np.ndarray | None):
    """The first candidate c, v before v_sym, with no local maximum of
    |Polynomial(c)| above 1 + ``EXCHANGE_TOL``, with no points; or None,
    with the points of every such maximum of both. On ``grid`` the maxima
    are found among the values of ``Polynomial(c)`` at the grid points; on
    [-1, 1] (``grid`` None) they are the points of ``Polynomial(c).peaks()``.
    """
    over = []
    for stood, c in enumerate(candidates):
        if grid is None:
            x, y = Polynomial(c).peaks()
            over.append(x[np.abs(y) > 1.0 + EXCHANGE_TOL])
        else:
            level = np.abs(Polynomial(c)(grid))
            above = level > 1.0 + EXCHANGE_TOL
            if above.any():  # on a converged step no level is above the bound
                above &= _peaks(level)
            over.append(grid[above])
        if over[-1].size == 0:
            return stood, over[-1]
    return None, np.concatenate(over)


def _exchange(problem: DesignProblem, active: np.ndarray, grid: np.ndarray | None) -> _Optimum:
    """The exchange of :func:`elfving_lp` from the sorted points ``active``,
    on ``grid`` (sorted and unique) or on [-1, 1] if it is None. It returns
    the final LP's marginals, and :func:`elfving_lp` alone reads the design
    from them; :func:`oracle_variance` needs the variance only."""
    n, p = problem.n, problem.p
    try:
        d = power_coefficients(n, p)
    except NumericalDegeneracyError as exc:  # first at (810, 560); every p > 1024
        raise OracleFailureError(str(exc)) from exc
    import logging  # imported here, as SciPy is: see the module docstring

    log = logging.getLogger(__name__)

    cost = -d / np.abs(d).max()  # maximize d_p . v, scaled to unit size
    off_parity = np.arange(1, n + 1) % 2 != p % 2
    for iteration in range(1, MAX_EXCHANGES + 1):
        rows = intercept_free_vander(active, n)
        res, failed = _solve_lp(cost, rows, _LP_OPTIONS), ""
        # v = 0 is feasible, no time or iteration limit is set and the model
        # is built from finite arrays, so an LP that is neither optimal nor
        # unbounded met numerical trouble (see the module docstring)
        if res.status.name not in ("kOptimal", "kUnbounded"):
            log.debug("LP of exchange step %d re-solved at HiGHS's defaults: %s", iteration, res)
            failed = f"{res}, re-solved at HiGHS's defaults: "
            res = _solve_lp(cost, rows, {})
        if res.x is None:  # an unbounded v means e_p is not representable
            raise OracleFailureError(f"LP did not terminate with an optimum at exchange step "
                                     f"{iteration}: {failed}{res}")
        candidates = res.x, np.where(off_parity, 0.0, res.x)  # v and v_sym
        stood, over = _search(candidates, grid)
        new = over if stood is not None else np.setdiff1d(over, active)
        log.debug("exchange step %d: %d active points, %d new, stood: %s", iteration, active.size,
                  new.size, "neither" if stood is None else ("v", "v_sym")[stood])
        # when neither stood and no point is new, v exceeds the bound only at
        # active points, by HiGHS's feasibility tolerance, and stands as the
        # optimum
        if new.size == 0:
            dual = candidates[stood or 0]
            break
        active = np.union1d(active, new)
    else:
        raise OracleFailureError(f"exchange did not converge in {MAX_EXCHANGES} steps")

    u_p = float(d @ dual)
    if not math.isfinite(u_p * u_p):
        raise OracleFailureError(f"variance (d_p . v)**2 overflows the double range for {problem}")
    return _Optimum(u_p * u_p, dual, active, res.marginals, iteration)


def _families(n: int) -> np.ndarray:
    """Extrema of T_s and E_2k, unsorted, which hold every optimal support of
    degree n; t_points(1) = s_points(1) = {-1, 1} stands in for E_0 at n = 1."""
    return np.concatenate([s_points((n + 1) // 2), t_points(max(n // 2, 1))])


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _prepared_grid(grid_size: int, n: int) -> _Grid:
    """``np.linspace(-1, 1, grid_size)`` prepared for the exchange at degree
    n, read-only and cached (see the module docstring)."""
    prepared = _prepare(np.linspace(-1.0, 1.0, grid_size), n)
    for array in prepared:
        array.setflags(write=False)
    return prepared


def oracle_variance(
    problem: DesignProblem,
    grid_size: int = DEFAULT_GRID_SIZE,
    include_solver_support: bool = False,
) -> float:
    """Optimal variance on ``grid_size`` evenly spaced points of [-1, 1].

    The result is bit for bit
    ``elfving_lp(problem, np.linspace(-1, 1, grid_size)).variance``, an
    upper bound that tightens with the grid, on a grid prepared once per
    (grid_size, n) and cached (see the module docstring). With
    ``include_solver_support`` it is bit for bit
    ``elfving_lp(problem).variance``, the optimum on all of [-1, 1], and
    ``grid_size`` is only validated. That keyword remains only for the
    ``oracle_crosscheck`` benchmark (``perfbench/worker.py``) and
    acceptance criterion 4 until the benchmark change of ROADMAP item 4;
    every other caller of the [-1, 1] optimum calls ``elfving_lp(problem)``.
    Neither path calls the solver. ``grid_size`` is checked first, so
    2001.0 is refused even once 2001 is cached.
    """
    if not is_integer(grid_size) or grid_size < 2:
        raise ValueError(f"grid must have at least 2 points, given as an integer, got {grid_size!r}")
    n = problem.n
    grid = _prepare(None, n) if include_solver_support else _prepared_grid(grid_size, n)
    return _exchange(problem, *grid).variance
