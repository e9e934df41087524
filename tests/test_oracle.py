import logging
import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly, chebvander
from scipy.optimize import linprog

import polydesign.oracle
from polydesign import (
    DesignProblem,
    OracleFailureError,
    Polynomial,
    elfving_lp,
    oracle_grid,
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


def test_oracle_grid_rejects_a_bool_size_and_takes_numpy_integers():
    # True passes a bare Integral check and was rejected only as a 1-point grid
    with pytest.raises(ValueError, match="given as an integer, got True"):
        oracle_grid(True)
    np.testing.assert_array_equal(oracle_grid(np.int64(5)), oracle_grid(5))


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
    lp = elfving_lp(problem, oracle_grid(2001, result.designs))
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
    problem = DesignProblem(30, 15)
    grid = oracle_grid(2001, solve(problem).designs)
    _dual_checks(problem, grid, elfving_lp(problem, grid))


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (4, 4), (5, 3), (6, 5)])
def test_oracle_lower_bound_property(n, p):
    problem = DesignProblem(n, p)
    solver_variance = solve(problem).variance
    value = oracle_variance(problem, grid_size=2001, include_solver_support=False)
    assert value >= solver_variance - 1e-9
    assert value == pytest.approx(solver_variance, rel=1e-3)


@pytest.mark.parametrize("n,p", [(9, 3), (9, 5)])
def test_oracle_grid_holds_every_design_support(n, p):
    # case C: the two mirror designs drop different extrema, the endpoints
    # at (9, 3), which the uniform grid holds anyway, and the two central
    # ones, which it does not, at (9, 5)
    designs = solve(DesignProblem(n, p)).designs
    assert len(designs) == 2
    grid = oracle_grid(2001, designs)
    for design in designs:
        assert np.isin(design.support, grid).all()
    assert np.isin(np.linspace(-1.0, 1.0, 2001), grid).all()
    assert np.all(np.diff(grid) > 0)


def test_oracle_grid_without_designs_is_the_uniform_grid():
    grid = oracle_grid(2001)
    expected = np.linspace(-1.0, 1.0, 2001)
    assert grid.dtype == expected.dtype
    np.testing.assert_array_equal(grid.view(np.int64), expected.view(np.int64))


def test_oracle_variance_validates_grid_size():
    with pytest.raises(ValueError):
        oracle_variance(DesignProblem(5, 1), grid_size=1)


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
    # 1 <= p <= n <= 8 on grid 10001, the solver's support included and not
    exchanges = {}
    for n in range(1, 9):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            designs = solve(problem).designs
            for included in (True, False):
                grid = oracle_grid(10001, designs if included else ())
                exchanges[n, p, included] = elfving_lp(problem, grid).iterations
    return exchanges


def test_every_p_converges_in_one_lp(criterion_4_exchanges):
    # the start holds the grid points nearest the two point families: the
    # extrema of T_s, s the largest odd number <= n, where the optimal
    # designs for odd p sit, and of E_2k, where those for even p sit
    assert criterion_4_exchanges == dict.fromkeys(criterion_4_exchanges, 1)


def test_criterion_4_lp_count(criterion_4_exchanges):
    assert len(criterion_4_exchanges) == 72
    assert sum(criterion_4_exchanges.values()) == 72


def _recording_linprog(monkeypatch):
    """The status of every LP HiGHS solves, in order."""
    statuses = []

    def recording(*args, **kwargs):
        res = linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr("scipy.optimize.linprog", recording)
    return statuses


def _grid_excess(lp, grid, tol):
    """max |dual . g| - 1 on the grid, and the bound OracleResult states for
    a final LP solved at primal feasibility tolerance ``tol``."""
    excess = np.abs(Polynomial(lp.dual)(grid)).max() - 1.0
    return excess, tol + 2e-13 * np.abs(lp.dual).sum()


def test_sparse_uniform_grids_stay_solvable(monkeypatch):
    # n + 2 points keep the LP bounded; at (29, 7) the optimal |v| is 2.3e5,
    # HiGHS cannot reach the 1e-10 tolerances and the LP is solved again at
    # its defaults. On many of these grids the dual exceeds 1 + EXCHANGE_TOL
    # (by up to 1.8e-8 at (30, 8), with no retry), never the bound that
    # OracleResult states
    statuses = _recording_linprog(monkeypatch)
    for n in range(1, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            grid = np.linspace(-1.0, 1.0, n + 2)
            statuses.clear()
            lp = elfving_lp(problem, grid)
            assert lp.variance >= solve(problem).variance * (1.0 - 1e-9), (n, p)
            excess, bound = _grid_excess(lp, grid, 1e-7 if 4 in statuses else 1e-10)
            assert excess <= bound, (n, p)


def test_grid_bound_at_29_7(monkeypatch):
    # on 31 uniform points HiGHS reports numerical difficulties (status 4,
    # SciPy 1.17) and the LP is solved again at its defaults; the dual then
    # exceeds 1 + EXCHANGE_TOL by 1.6e-9, within the stated bound
    statuses = _recording_linprog(monkeypatch)
    grid = np.linspace(-1.0, 1.0, 31)
    lp = elfving_lp(DesignProblem(29, 7), grid)
    excess, bound = _grid_excess(lp, grid, 1e-7 if 4 in statuses else 1e-10)
    assert excess <= bound


def test_sparse_grid_design_need_not_be_admissible():
    # on 31 uniform points at (29, 7) the final LP's marginals leave 28
    # points, under which e_7 is not estimable at ADMISSIBLE_TOL; the
    # variance, a grid optimum, still bounds solve's from above
    problem = DesignProblem(29, 7)
    lp = elfving_lp(problem, np.linspace(-1.0, 1.0, 31))
    assert lp.design.size == 28
    assert phi_c(lp.design, np.eye(29)[6], 29) == math.inf
    assert math.isfinite(lp.variance)
    assert lp.variance >= solve(problem).variance


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
