import math

import numpy as np
import pytest
from scipy.optimize import linprog

import polydesign.oracle
from polydesign import DesignProblem, OracleFailureError, elfving_lp, oracle_variance, solve

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
    grid = np.union1d(np.linspace(-1, 1, 2001), np.concatenate([d.support for d in result.designs]))
    lp = elfving_lp(problem, grid)
    matches = [
        np.abs(lp.design.support - d.support).max() <= 1e-9
        for d in result.designs
        if lp.design.size == d.size
    ]
    assert any(matches)


def test_lp_dual_certificate_properties():
    problem = DesignProblem(3, 3)
    grid = np.union1d(np.linspace(-1, 1, 2001), [-0.5, 0.5])
    lp = elfving_lp(problem, grid)
    g = np.union1d(np.asarray(grid, dtype=float), [])
    powers = np.vstack([g**q for q in range(1, problem.n + 1)])
    values = lp.dual @ powers
    assert np.abs(values).max() <= 1.0 + 1e-8
    assert lp.dual[problem.p - 1] * lp.scale_t == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (4, 4), (5, 3), (6, 5)])
def test_oracle_lower_bound_property(n, p):
    problem = DesignProblem(n, p)
    solver_variance = solve(problem).variance
    value = oracle_variance(problem, grid_size=2001, include_solver_support=False)
    assert value >= solver_variance - 1e-9
    assert value == pytest.approx(solver_variance, rel=1e-3)


def test_oracle_variance_validates_grid_size():
    with pytest.raises(ValueError):
        oracle_variance(DesignProblem(5, 1), grid_size=1)


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (3, 3), (4, 2), (5, 4), (6, 1)])
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


@pytest.mark.parametrize("n,p", [(1, 1), (4, 2), (8, 5)])
def test_lp_reports_exchange(n, p):
    lp = elfving_lp(DesignProblem(n, p), np.linspace(-1.0, 1.0, 10001))
    assert lp.iterations >= 1
    assert lp.active_size >= lp.design.size >= 1


def test_exchange_cap_raises(monkeypatch):
    problem, grid = DesignProblem(8, 5), np.linspace(-1.0, 1.0, 10001)
    assert elfving_lp(problem, grid).iterations > 1
    monkeypatch.setattr(polydesign.oracle, "MAX_EXCHANGES", 1)
    with pytest.raises(OracleFailureError, match="did not converge"):
        elfving_lp(problem, grid)


@pytest.mark.parametrize("n", [9, 10])
def test_oracle_agreement_degrees_9_and_10(n):
    for p in range(1, n + 1):
        problem = DesignProblem(n, p)
        variance = solve(problem).variance
        included = oracle_variance(problem, grid_size=10001, include_solver_support=True)
        assert included == pytest.approx(variance, rel=1e-7), (n, p)
