import ast
import logging
import math
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly, chebvander
from scipy.optimize import OptimizeWarning, linprog

import polydesign.oracle
import polydesign.solver
from polydesign import (
    DesignProblem,
    OracleFailureError,
    Polynomial,
    elfving_lp,
    oracle_variance,
    phi_c,
    solve,
)

SQRT2 = math.sqrt(2.0)


def _primal_variance(problem, grid):
    # Reference: the primal signed-atom LP over the whole grid,
    #   maximize t  s.t.  sum_j (lam+_j - lam-_j) f(x_j) = t e_p,
    #                     sum_j (lam+_j + lam-_j) = 1,  lam+, lam- >= 0,
    # one column per grid point and sign, with variance 1 / t**2.
    g = np.unique(np.asarray(grid, dtype=float))
    n, p, j = problem.n, problem.p, g.size
    powers = np.vstack([g**q for q in range(1, n + 1)])
    a_eq = np.zeros((n + 1, 2 * j + 1))
    a_eq[:n, :j] = powers
    a_eq[:n, j : 2 * j] = -powers
    a_eq[p - 1, -1] = -1.0
    a_eq[n, : 2 * j] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    cost = np.zeros(2 * j + 1)
    cost[-1] = -1.0
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs", options=options)
    if not res.success:
        raise OracleFailureError(f"LP did not terminate with an optimum: {res.message}")
    t = float(res.x[-1])
    if t <= 0.0:
        raise OracleFailureError("LP returned a nonpositive scaling")
    return 1.0 / (t * t)


def test_lp_degree_one_three_point_grid():
    result = elfving_lp(DesignProblem(1, 1), [-1.0, 0.0, 1.0])
    assert result.variance == pytest.approx(1.0, abs=1e-10)
    assert result.design.size == 1
    assert abs(result.design.support[0]) == 1.0
    assert result.design.weights[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_lp_rejects_non_finite_grid_points(bad):
    # NaN sorts last in np.unique and compares False against the range check
    with pytest.raises(ValueError, match="grid points must be finite"):
        elfving_lp(DesignProblem(2, 1), [-1.0, 0.5, bad, 1.0])


def test_oracle_variance_rejects_non_integer_grid_size():
    with pytest.raises(ValueError, match="given as an integer"):
        oracle_variance(DesignProblem(2, 1), grid_size=2.5)


def test_lp_validates_grid():
    problem = DesignProblem(2, 1)
    with pytest.raises(ValueError):
        elfving_lp(problem, [-1.0])  # too few points
    with pytest.raises(ValueError):
        elfving_lp(problem, [-1.0, -0.5, -0.2, 2.0])  # outside interval
    with pytest.raises(ValueError):
        elfving_lp(problem, [0.1, 0.4, 0.7, 1.0])  # no negative point


def test_oracle_variance_hand_lp():
    # grid {-1, 0, 1}: the best estimate of the linear coefficient in the
    # quadratic model splits mass evenly between the endpoints
    assert oracle_variance(DesignProblem(2, 1), grid_size=3) == pytest.approx(1.0, abs=1e-10)


def test_oracle_recovers_cubic_optimum():
    problem = DesignProblem(3, 3)
    value = oracle_variance(problem, grid_size=2001, include_solver_support=True)
    assert value == pytest.approx(16.0, rel=1e-8)


def test_oracle_recovers_quartic_optimum():
    problem = DesignProblem(4, 2)
    value = oracle_variance(problem, grid_size=2001, include_solver_support=True)
    assert value == pytest.approx(12 + 8 * SQRT2, rel=1e-8)


def test_lp_support_matches_solver_design():
    problem = DesignProblem(3, 3)
    result = solve(problem)
    lp = elfving_lp(problem)
    matches = [
        np.abs(lp.design.support - d.support).max() <= 1e-9
        for d in result.designs
        if lp.design.size == d.size
    ]
    assert any(matches)


def _g_basis(x, n):
    # g_j(x) = T_j(x) - T_j(0), j = 1..n, as rows, built directly from numpy
    return (chebvander(x, n) - chebvander([0.0], n))[:, 1:].T


def _dual_checks(problem, grid, lp):
    # |v . g(x_j)| <= 1 on the grid and (d_p . v)**2 = variance, with d_p the
    # coefficients of x**p in T_1..T_n from numpy's exact-integer cheb2poly;
    # the dual is the certificate's coefficient vector, so it evaluates as one
    values = lp.dual @ _g_basis(np.asarray(grid, dtype=float), problem.n)
    d = np.array([np.pad(cheb2poly(np.eye(j + 1)[j]), (0, problem.p))[problem.p]
                  for j in range(1, problem.n + 1)])
    assert np.abs(values).max() <= 1.0 + 1e-8
    np.testing.assert_allclose(Polynomial(lp.dual)(grid), values, rtol=0, atol=1e-13)
    assert (d @ lp.dual) ** 2 == pytest.approx(lp.variance, rel=1e-8)


def test_lp_dual_certificate_properties():
    problem = DesignProblem(3, 3)
    grid = np.union1d(np.linspace(-1, 1, 2001), [-0.5, 0.5])
    _dual_checks(problem, grid, elfving_lp(problem, grid))


def test_lp_dual_certificate_properties_degree_30():
    # the exchange on [-1, 1]: bounded on a dense grid and at the continuous
    # extrema of its certificate polynomial
    problem = DesignProblem(30, 15)
    lp = elfving_lp(problem)
    _dual_checks(problem, np.linspace(-1.0, 1.0, 2001), lp)
    assert np.abs(Polynomial(lp.dual).peaks()[1]).max() <= 1.0 + 1e-8


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (4, 4), (5, 3), (6, 5)])
def test_oracle_lower_bound_property(n, p):
    problem = DesignProblem(n, p)
    solver_variance = solve(problem).variance
    value = oracle_variance(problem, grid_size=2001, include_solver_support=False)
    assert value >= solver_variance - 1e-9
    assert value == pytest.approx(solver_variance, rel=1e-3)


def test_prepared_grid_is_the_uniform_grid():
    grid = polydesign.oracle._prepared_grid(2001, 3).points
    expected = np.linspace(-1.0, 1.0, 2001)
    assert grid.dtype == expected.dtype
    np.testing.assert_array_equal(grid.view(np.int64), expected.view(np.int64))


def test_oracle_variance_validates_grid_size():
    problem = DesignProblem(5, 1)
    for tight in (False, True):
        with pytest.raises(ValueError):
            oracle_variance(problem, grid_size=1, include_solver_support=tight)


def test_oracle_grid_rejects_a_bool_size_and_takes_numpy_integers():
    # The oracle's grid size, on both paths of oracle_variance
    problem = DesignProblem(5, 1)
    for tight in (False, True):
        # True passes a bare Integral check and was rejected only as a 1-point grid
        with pytest.raises(ValueError, match="given as an integer, got True"):
            oracle_variance(problem, True, tight)
        assert oracle_variance(problem, np.int64(301), tight) == oracle_variance(problem, 301, tight)


def test_grid_size_is_checked_before_the_grid_cache():
    # lru_cache takes 2001.0 and True for the keys 2001 and 1
    problem = DesignProblem(3, 1)
    oracle_variance(problem, 2001)
    for size in (2001.0, np.float64(2001), True):
        with pytest.raises(ValueError, match="given as an integer"):
            oracle_variance(problem, size)


@pytest.mark.parametrize("tight", [False, True])
def test_cached_oracle_variance_is_elfving_lp_bit_for_bit(tight):
    for n in range(1, 11):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            expected = elfving_lp(problem, None if tight else np.linspace(-1.0, 1.0, 2001)).variance
            polydesign.oracle._prepared_grid.cache_clear()
            cold = oracle_variance(problem, 2001, include_solver_support=tight)
            warm = oracle_variance(problem, 2001, include_solver_support=tight)
            assert cold == warm == expected, (n, p)


def test_cached_grid_is_read_only_and_within_its_byte_bound():
    for n in (1, 2, 9, 30):
        grid = polydesign.oracle._prepared_grid(2001, n)
        assert sum(array.nbytes for array in grid) <= 8 * (2001 + 4 * n + 4), n
        for array in grid:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_grid_cache_stays_bounded():
    for n in range(1, 41):
        for size in (301, 302):
            oracle_variance(DesignProblem(n, 1), size)
    info = polydesign.oracle._prepared_grid.cache_info()
    assert info.currsize <= info.maxsize == polydesign.oracle._GRID_CACHE_SIZE == 64


def test_exchange_on_the_interval_uses_no_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("_prepared_grid called for the exchange on [-1, 1]")

    monkeypatch.setattr(polydesign.oracle, "_prepared_grid", refuse)
    problem = DesignProblem(9, 5)
    expected = elfving_lp(problem).variance
    assert oracle_variance(problem, 10001, include_solver_support=True) == expected


def test_converged_exchange_skips_the_peak_search(monkeypatch):
    # on grid 10001 the first LP is optimal, so no level is above the bound
    def refuse(level):
        raise AssertionError("_peaks called on a converged step")

    monkeypatch.setattr(polydesign.oracle, "_peaks", refuse)
    problem = DesignProblem(8, 4)
    assert elfving_lp(problem, np.linspace(-1.0, 1.0, 10001)).iterations == 1
    assert oracle_variance(problem, 10001) > 0.0


def test_grid_exchange_builds_no_grid_sized_basis(monkeypatch):
    # the LP rows are g at the active points alone, and the grid is searched
    # through Polynomial, so no basis of all 10001 grid points is built
    sizes = []
    vander = polydesign.oracle.intercept_free_vander

    def recording(x, m):
        sizes.append(np.size(x))
        return vander(x, m)

    monkeypatch.setattr(polydesign.oracle, "intercept_free_vander", recording)
    problem = DesignProblem(8, 4)
    assert elfving_lp(problem, np.linspace(-1.0, 1.0, 10001)).variance > 0.0
    assert oracle_variance(problem, 10001) > 0.0
    assert sizes and max(sizes) < 10001


# even p with odd n: the optimal dual is not unique, the exchange's hard case
DEGENERATE = [(3, 2), (5, 2), (5, 4), (7, 2), (7, 4), (7, 6)]


@pytest.mark.parametrize("n,p", sorted({(1, 1), (2, 1), (3, 3), (4, 2), (6, 1), *DEGENERATE}))
def test_exchange_matches_primal_lp(n, p):
    problem = DesignProblem(n, p)
    grid = np.linspace(-1.0, 1.0, 2001)
    reference = _primal_variance(problem, grid)
    assert elfving_lp(problem, grid).variance == pytest.approx(reference, rel=1e-9)


def test_unrepresentable_target_fails_in_both_formulations():
    # f(-1) and f(1) span no multiple of e_3: the primal's best scaling is
    # t = 0 and the dual is unbounded
    problem, grid = DesignProblem(3, 3), [-1.0, 0.0, 1.0]
    with pytest.raises(OracleFailureError):
        _primal_variance(problem, grid)
    with pytest.raises(OracleFailureError):
        elfving_lp(problem, grid)


def test_double_range_overflow_fails_as_oracle_failure():
    # the coefficients of x**1100 in T_j exceed the double range
    with pytest.raises(OracleFailureError, match="overflow"):
        elfving_lp(DesignProblem(1100, 1100), [-1.0, -0.5, 0.5, 1.0])


def test_variance_past_the_double_range_fails_as_oracle_failure(monkeypatch):
    # at (415, 247) (d_p . v)**2 is no double, and elfving_lp returned inf
    # with no error; forced here by scaling each LP's v by 1e200 on a grid
    # whose every point is active from the start, so the exchange stops
    # on "no new point" with that v
    solve_lp = polydesign.oracle._solve_lp

    def huge(*args):
        res = solve_lp(*args)
        return res._replace(x=res.x * 1e200)

    monkeypatch.setattr(polydesign.oracle, "_solve_lp", huge)
    with pytest.raises(OracleFailureError, match="overflows the double range"):
        elfving_lp(DesignProblem(2, 1), [-1.0, -0.5, 0.5, 1.0])


@pytest.mark.parametrize("n,p", [(1, 1), (4, 2), (8, 5)])
def test_lp_reports_exchange(n, p):
    lp = elfving_lp(DesignProblem(n, p), np.linspace(-1.0, 1.0, 10001))
    assert lp.iterations >= 1
    assert lp.active_size >= lp.design.size >= 1


@pytest.mark.parametrize("n,p", DEGENERATE)
def test_degenerate_dual_converges_in_few_exchanges(n, p):
    # the parity candidate stops the exchange at the symmetric optimum
    # instead of approaching it one LP at a time, and is the reported dual
    problem, grid = DesignProblem(n, p), np.linspace(-1.0, 1.0, 10001)
    lp = elfving_lp(problem, grid)
    assert lp.iterations <= 5
    _dual_checks(problem, grid, lp)


def test_exchange_cap_raises(monkeypatch):
    # on grid 10001 every problem with n <= 30 ends after one LP; on the
    # default grid 2001 the even p of n = 16 and 17 take two
    problem, grid = DesignProblem(16, 2), np.linspace(-1.0, 1.0, 2001)
    assert elfving_lp(problem, grid).iterations > 1
    monkeypatch.setattr(polydesign.oracle, "MAX_EXCHANGES", 1)
    with pytest.raises(OracleFailureError, match="did not converge"):
        elfving_lp(problem, grid)


@pytest.fixture(scope="module")
def criterion_4_exchanges():
    # LPs solved by each of acceptance criterion 4's 72 calls:
    # 1 <= p <= n <= 8 on [-1, 1] and on grid 10001
    exchanges = {}
    for n in range(1, 9):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            for included in (True, False):
                grid = None if included else np.linspace(-1.0, 1.0, 10001)
                exchanges[n, p, included] = elfving_lp(problem, grid).iterations
    return exchanges


def test_every_p_converges_in_one_lp(criterion_4_exchanges):
    # the start holds the two point families, or on the grid the points
    # nearest them: the extrema of T_s, s the largest odd number <= n,
    # where the optimal designs for odd p sit, and of E_2k, where those for
    # even p sit
    assert criterion_4_exchanges == dict.fromkeys(criterion_4_exchanges, 1)


def test_criterion_4_lp_count(criterion_4_exchanges):
    assert len(criterion_4_exchanges) == 72
    assert sum(criterion_4_exchanges.values()) == 72


def _recording_lps(monkeypatch):
    """(cost, rows, options, result) of every LP HiGHS solves, in order."""
    calls = []
    solve_lp = polydesign.oracle._solve_lp

    def recording(cost, rows, options):
        res = solve_lp(cost, rows, options)
        calls.append((cost, rows, options, res))
        return res

    monkeypatch.setattr(polydesign.oracle, "_solve_lp", recording)
    return calls


def _criterion_4_calls():
    # acceptance criterion 4's 72 LPs through elfving_lp
    for n in range(1, 9):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            for tight in (True, False):
                elfving_lp(problem, None if tight else np.linspace(-1.0, 1.0, 10001))


def _statuses(calls):
    return [res.status for *_, res in calls]


def _assert_lps_check_out(calls):
    # linprog(method="highs") on the split model [rows; -rows] v <= 1, with
    # the same options, ends with the same status (linprog passes
    # simplex_scale_strategy to HiGHS verbatim, with a warning), and each
    # optimum carries its own certificate: x is feasible, the row duals y
    # solve rows^T y = cost, y_i < 0 only at rows at +1 and y_i > 0 only at
    # rows at -1, the duality gap cost . x + sum |y_i| is zero, and cost . x
    # is linprog's objective, all to 1e-13
    for cost, rows, options, res in calls:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
            ref = linprog(cost, A_ub=np.vstack([rows, -rows]), b_ub=np.ones(2 * rows.shape[0]),
                          bounds=(None, None), method="highs", options=options)
        assert res.status == ref.status, res.message
        if ref.status != 0:
            assert res.x is None and res.marginals is None
            continue
        assert res.x.dtype == res.marginals.dtype == np.float64
        x, y = res.x, res.marginals
        level, objective = rows @ x, float(cost @ x)
        slack = np.where(y < 0.0, 1.0 - level, 1.0 + level)
        assert np.abs(level).max() <= 1.0 + 1e-13
        np.testing.assert_allclose(rows.T @ y, cost, rtol=0, atol=1e-13)
        assert np.abs(y * slack).max() <= 1e-13
        assert objective == pytest.approx(-np.abs(y).sum(), rel=1e-13)
        assert objective == pytest.approx(ref.fun, rel=1e-13)


def _grid_excess(lp, grid, tol):
    """max |dual . g| - 1 on the grid, and the bound OracleResult states for
    a final LP solved at primal feasibility tolerance ``tol``."""
    excess = np.abs(Polynomial(lp.dual)(grid)).max() - 1.0
    return excess, tol + 2e-13 * np.abs(lp.dual).sum()


def test_sparse_uniform_grids_stay_solvable(monkeypatch):
    # n + 2 points keep the LP bounded, though the optimal |v| reaches 3.8e5,
    # and every LP ends optimal at the 1e-10 tolerances, so none is retried.
    # On many of these grids the dual exceeds 1 + EXCHANGE_TOL, never the
    # bound that OracleResult states. linprog's split model is no reference
    # here: at (29, 7) it ends with HiGHS's status "Unknown", and the
    # certificate's residuals grow with |v| (to 7.7e-8)
    calls = _recording_lps(monkeypatch)
    for n in range(1, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            grid = np.linspace(-1.0, 1.0, n + 2)
            calls.clear()
            lp = elfving_lp(problem, grid)
            assert lp.variance >= solve(problem).variance * (1.0 - 1e-9), (n, p)
            assert 4 not in _statuses(calls), (n, p)
            excess, bound = _grid_excess(lp, grid, 1e-10)
            assert excess <= bound, (n, p)


def _forcing_one_retry(monkeypatch):
    """Record every LP as :func:`_recording_lps` does, with the options
    HiGHS held after it, and report the first LP as numerical difficulties
    (linprog's status 4), which no sparse uniform grid gives naturally."""
    calls = _recording_lps(monkeypatch)
    recording = polydesign.oracle._solve_lp
    held = []

    def failing_once(cost, rows, options):
        res = recording(cost, rows, options)
        solver = polydesign.oracle._THREAD.solver
        held.append({key: solver.getOptionValue(key)[1] for key in polydesign.oracle._LP_OPTIONS})
        if len(calls) == 1:
            return res._replace(status=4, message="forced", x=None, marginals=None)
        return res

    monkeypatch.setattr(polydesign.oracle, "_solve_lp", failing_once)
    return calls, held


def _highs_defaults():
    from scipy.optimize._highspy import _core

    solver = _core._Highs()
    return {key: solver.getOptionValue(key)[1] for key in polydesign.oracle._LP_OPTIONS}


def test_grid_bound_at_29_7(monkeypatch):
    # on 31 uniform points |v| reaches 2e5; the first LP is optimal at the
    # 1e-10 tolerances and the dual exceeds 1 + EXCHANGE_TOL by 1.9e-9,
    # within the stated bound. Forced, the retry at HiGHS's defaults (1e-7)
    # stays within the bound at that tolerance
    grid = np.linspace(-1.0, 1.0, 31)
    calls = _recording_lps(monkeypatch)
    lp = elfving_lp(DesignProblem(29, 7), grid)
    assert _statuses(calls) == [0]
    excess, bound = _grid_excess(lp, grid, 1e-10)
    assert excess <= bound
    calls, held = _forcing_one_retry(monkeypatch)
    lp = elfving_lp(DesignProblem(29, 7), grid)
    assert [options for _, _, options, _ in calls] == [polydesign.oracle._LP_OPTIONS, {}]
    assert held == [polydesign.oracle._LP_OPTIONS, _highs_defaults()]
    excess, bound = _grid_excess(lp, grid, 1e-7)
    assert excess <= bound


def test_retry_is_logged(caplog, monkeypatch):
    _forcing_one_retry(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="polydesign.oracle")
    elfving_lp(DesignProblem(29, 7), np.linspace(-1.0, 1.0, 31))
    messages = [r.getMessage() for r in caplog.records if r.name == "polydesign.oracle"]
    assert messages == ["LP of exchange step 1 re-solved at HiGHS's default tolerances: forced",
                        "exchange step 1: 31 active points, 0 new, stood: neither"]


def test_solve_lp_matches_linprog_on_criterion_4(monkeypatch):
    calls = _recording_lps(monkeypatch)
    _criterion_4_calls()
    assert len(calls) == 72
    _assert_lps_check_out(calls)


def test_solve_lp_and_linprog_both_fail_on_an_unrepresentable_target(monkeypatch):
    calls = _recording_lps(monkeypatch)
    with pytest.raises(OracleFailureError, match="Unbounded"):
        elfving_lp(DesignProblem(3, 3), [-1.0, 0.0, 1.0])
    assert _statuses(calls) == [3]
    _assert_lps_check_out(calls)


def test_no_oracle_path_calls_linprog(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called linprog")

    monkeypatch.setattr("scipy.optimize.linprog", refuse)
    problem = DesignProblem(9, 5)
    assert elfving_lp(problem, np.linspace(-1.0, 1.0, 2001)).variance > 0.0
    assert elfving_lp(problem).variance > 0.0
    assert oracle_variance(problem, 2001) > 0.0


def test_retry_tolerances_do_not_leak(monkeypatch):
    # the forced retry at (29, 7) runs at HiGHS's defaults; the next LP on
    # the same thread, and so on the same solver, is a fresh thread's LP on
    # a fresh solver bit for bit
    calls, held = _forcing_one_retry(monkeypatch)
    elfving_lp(DesignProblem(29, 7), np.linspace(-1.0, 1.0, 31))
    assert held == [polydesign.oracle._LP_OPTIONS, _highs_defaults()]

    def next_lp():
        elfving_lp(DesignProblem(8, 3), np.linspace(-1.0, 1.0, 10001))

    next_lp()
    worker = threading.Thread(target=next_lp)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive()
    assert len(calls) == len(held) == 4
    assert held[2] == held[3] == polydesign.oracle._LP_OPTIONS
    (*_, same), (*_, fresh) = calls[2:]
    assert same.status == fresh.status == 0
    for mine, theirs in ((same.x, fresh.x), (same.marginals, fresh.marginals)):
        np.testing.assert_array_equal(mine.view(np.int64), theirs.view(np.int64))
    _assert_lps_check_out(calls[2:])


def test_each_thread_makes_one_solver(monkeypatch):
    # criterion 4's 72 LPs make no solver on a thread that has solved an LP
    # and one on a thread that has not
    from scipy.optimize._highspy import _core

    elfving_lp(DesignProblem(1, 1), [-1.0, 0.0, 1.0])
    made = []
    highs = _core._Highs

    def counting():
        made.append(highs())
        return made[-1]

    monkeypatch.setattr(_core, "_Highs", counting)
    calls = _recording_lps(monkeypatch)
    _criterion_4_calls()
    assert len(calls) == 72
    assert made == []
    worker = threading.Thread(target=_criterion_4_calls)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive()
    assert len(calls) == 144
    assert len(made) == 1


def test_threads_match_sequential_bit_for_bit():
    # every thread solves on its own solver: four workers on two cores, with
    # the interpreter switching threads often, give the sequential results
    keys = [(DesignProblem(n, p), tight)
            for n in range(1, 13) for p in range(1, n + 1) for tight in (False, True)]
    sequential = [oracle_variance(problem, 2001, tight) for problem, tight in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(oracle_variance, problem, 2001, tight)
                       for problem, tight in keys]
            threaded = [future.result(timeout=60.0) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(np.array(threaded).view(np.int64),
                                  np.array(sequential).view(np.int64))


def test_sparse_grid_design_is_scored_near_the_lp_variance():
    # on 31 uniform points at (29, 7) the final LP's marginals leave 29
    # points, and phi_c of the design agrees with the LP variance to 6.8e-11;
    # both bound solve's from above
    problem = DesignProblem(29, 7)
    lp = elfving_lp(problem, np.linspace(-1.0, 1.0, 31))
    assert lp.design.size == 29
    value = phi_c(lp.design, np.eye(29)[6], 29)
    assert value == pytest.approx(lp.variance, rel=1e-9)
    assert min(value, lp.variance) >= solve(problem).variance


def test_solver_supports_as_grids():
    # the LP on an optimal support alone recovers the closed-form variance;
    # n = 1 is left out, its supports {-1} and {1} are not valid grids
    for n in range(2, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            result = solve(problem)
            for design in result.designs:
                lp = elfving_lp(problem, design.support)
                assert lp.variance == pytest.approx(result.variance, rel=1e-9), (n, p)


def test_exchange_logs_each_step(caplog):
    # five LPs: on 3002 random points the ones nearest the extrema miss the
    # grid optimum's support
    caplog.set_level(logging.DEBUG, logger="polydesign.oracle")
    grid = np.concatenate([[-1.0, 1.0], np.random.default_rng(0).uniform(-1.0, 1.0, 3000)])
    lp = elfving_lp(DesignProblem(7, 4), grid)
    messages = [r.getMessage() for r in caplog.records if r.name == "polydesign.oracle"]
    assert lp.iterations > 1
    assert len(messages) == lp.iterations
    assert messages[0].startswith("exchange step 1: ")
    assert all(" active points, " in m for m in messages)
    assert all(m.endswith("stood: neither") for m in messages[:-1])
    assert messages[-1].endswith(("stood: v", "stood: v_sym"))
    last = f"exchange step {lp.iterations}: {lp.active_size} active points, 0 new"
    assert messages[-1].startswith(last)
    assert logging.getLogger("polydesign.oracle").handlers == []


@pytest.mark.parametrize("n, p, grid", [
    # five LPs, as above
    (7, 4, np.concatenate([[-1.0, 1.0], np.random.default_rng(0).uniform(-1.0, 1.0, 3000)])),
    # one LP, where v_sym stands while v has two violating peaks
    (5, 2, np.linspace(-1.0, 1.0, 101)),
])
def test_logged_new_points_join_the_active_set(caplog, n, p, grid):
    caplog.set_level(logging.DEBUG, logger="polydesign.oracle")
    lp = elfving_lp(DesignProblem(n, p), grid)
    messages = [r.getMessage() for r in caplog.records if r.name == "polydesign.oracle"]
    new = [int(re.search(r", (\d+) new, ", m).group(1)) for m in messages]
    start = polydesign.oracle._prepare(grid, n).start.size
    assert len(new) == lp.iterations
    assert sum(new) == lp.active_size - start
    assert new[-1] == 0


def _assert_oracle_agreement(n):
    for p in range(1, n + 1):
        problem = DesignProblem(n, p)
        variance = solve(problem).variance
        included = oracle_variance(problem, grid_size=10001, include_solver_support=True)
        assert included == pytest.approx(variance, rel=1e-7), (n, p)


@pytest.mark.parametrize("n", [9, 10])
def test_oracle_agreement_degrees_9_and_10(n):
    _assert_oracle_agreement(n)


@pytest.mark.parametrize("n", [16, 23, 30])
def test_oracle_agreement_high_degrees(n):
    # every p of three degrees covers all three cases; the full n <= 30
    # sweep is scripts/oracle_sweep.py
    _assert_oracle_agreement(n)


def test_interval_exchange_needs_no_point_family():
    # started from 2n + 2 evenly spaced points alone, without s_points or
    # t_points, the exchange on [-1, 1] still meets solve: its result does
    # not rest on the point families, only its LP count does
    problems = [(n, p) for n in (8, 15) for p in range(1, n + 1)] + [(29, 3), (29, 15)]
    for n, p in problems:
        problem = DesignProblem(n, p)
        optimum = polydesign.oracle._exchange(problem, np.linspace(-1.0, 1.0, 2 * n + 2), None)
        assert optimum.iterations <= 6, (n, p)
        assert optimum.variance == pytest.approx(solve(problem).variance, rel=1e-10), (n, p)


def _assert_lp_picks_a_solver_design(problem):
    # on [-1, 1] the LP's own design is one of solve's: the same support
    # bits, so in case C it picks the drop itself, and the same weights
    lp = elfving_lp(problem)
    designs = [d for d in solve(problem).designs if np.array_equal(d.support, lp.design.support)]
    assert len(designs) == 1, problem
    np.testing.assert_allclose(lp.design.weights, designs[0].weights, rtol=0, atol=1e-12)
    assert lp.iterations == 1, problem


def test_lp_picks_a_solver_design_up_to_degree_12():
    for n in range(1, 13):
        for p in range(1, n + 1):
            _assert_lp_picks_a_solver_design(DesignProblem(n, p))


@pytest.mark.parametrize("p", [1, 2, 51, 99, 100])
def test_lp_picks_a_solver_design_at_degree_100(p):
    _assert_lp_picks_a_solver_design(DesignProblem(100, p))


def test_no_oracle_path_calls_the_solver(monkeypatch):
    problem = DesignProblem(9, 5)
    expected = solve(problem).variance

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called solve")

    monkeypatch.setattr(polydesign.solver, "solve", refuse)
    value = oracle_variance(problem, 2001, include_solver_support=True)
    assert value == pytest.approx(expected, rel=1e-12)


def test_routes_import_only_the_shared_layers():
    # the solver, the verifier and the oracle are three routes to one
    # variance; none may import another, function-local imports included
    shared = {"design", "errors", "points", "polynomial"}
    package = Path(polydesign.oracle.__file__).parent
    for route in ("solver", "elfving", "oracle"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{route}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "polydesign":
                imported.add(node.module.partition(".")[2] or "polydesign")
            elif isinstance(node, ast.Import):
                imported |= {a.name.partition(".")[2] or "polydesign"
                             for a in node.names if a.name.split(".")[0] == "polydesign"}
        assert imported <= shared, (route, imported - shared)
