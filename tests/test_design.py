import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydesign import (
    Design,
    DesignProblem,
    InvalidDesignError,
    InvalidProblemError,
    NumericalDegeneracyError,
    certificate_identity,
    phi_c,
    solve,
)
from polydesign.design import _phi_c
from polydesign.points import s_points
from polydesign.polynomial import intercept_free_vander, power_coefficients

TWO_POINT = Design([-1.0, 1.0], [0.5, 0.5])
ONE_POINT = Design([1.0], [1.0])


def test_design_validation():
    with pytest.raises(InvalidDesignError):
        Design([0.5, -0.5], [0.5, 0.5])  # not increasing
    with pytest.raises(InvalidDesignError):
        Design([-1.0, 1.5], [0.5, 0.5])  # outside the interval
    with pytest.raises(InvalidDesignError):
        Design([-1.0, 1.0], [0.5, -0.5])  # negative weight
    with pytest.raises(InvalidDesignError):
        Design([-1.0, 1.0], [0.45, 0.45])  # sum != 1
    with pytest.raises(InvalidDesignError):
        Design([], [])


@pytest.mark.parametrize(
    "support, weights",
    [
        ([math.nan, 0.5], [0.5, 0.5]),
        ([-0.5, math.inf], [0.5, 0.5]),
        ([-0.5, 0.5], [math.nan, 0.5]),
        ([-0.5, 0.5], [0.5, -math.inf]),
    ],
)
def test_design_rejects_non_finite_values(support, weights):
    with pytest.raises(InvalidDesignError, match="finite"):
        Design(support, weights)


def test_design_rejects_two_dimensional_input():
    # a column used to pass (the duplicate [[0.5], [0.5]] too: the increasing
    # check ran along the wrong axis) and a row to fail inside numpy
    for support, weights in [
        ([[-1.0], [1.0]], [[0.5], [0.5]]),
        ([[0.5], [0.5]], [[0.5], [0.5]]),
        ([[-1.0, 1.0]], [[0.5, 0.5]]),
        ([[-1.0, 0.5], [0.25, 1.0]], [[0.25, 0.25], [0.25, 0.25]]),
    ]:
        with pytest.raises(InvalidDesignError, match="one-dimensional"):
            Design(support, weights)


@pytest.mark.parametrize(
    "n, p", [(3.5, 1), (3, 1.0), ("3", 1), (np.float64(4.0), 2), (True, 1), (3, True)]
)
def test_problem_rejects_non_integral_indices(n, p):
    with pytest.raises(InvalidProblemError, match="integers"):
        DesignProblem(n, p)


def test_problem_accepts_numpy_integers():
    problem = DesignProblem(np.int64(3), np.int32(2))
    assert problem == DesignProblem(3, 2)


def test_problem_validation():
    with pytest.raises(InvalidProblemError):
        DesignProblem(0, 1)
    with pytest.raises(InvalidProblemError):
        DesignProblem(3, 4)
    with pytest.raises(InvalidProblemError):
        DesignProblem(3, 0)


def test_information_matrix_single_point():
    with pytest.raises(InvalidProblemError, match="degree must be positive"):
        phi_c(ONE_POINT, [], 0)  # the same error as DesignProblem(0, 1)


@pytest.mark.parametrize(
    "n", [True, 2.5, 2.0, np.float64(2.0), "2"], ids=["bool", "2.5", "2.0", "float64", "str"]
)
def test_information_matrix_and_phi_c_reject_non_integer_degrees(n):
    # True used to read as n = 1; the floats failed inside numpy with a raw TypeError
    with pytest.raises(InvalidProblemError, match="degree must be an integer"):
        phi_c(TWO_POINT, [1.0, 0.0], n)


def test_information_matrix_takes_numpy_integers():
    assert phi_c(TWO_POINT, [1.0, 0.0], np.int32(2)) == phi_c(TWO_POINT, [1.0, 0.0], 2)


def test_phi_c_is_finite_exactly_when_estimable():
    # phi_c is finite exactly when c is estimable (in the column space of M)
    assert math.isfinite(phi_c(TWO_POINT, [0, 1, 0], 3))
    assert not math.isfinite(phi_c(ONE_POINT, [1, 0], 2))
    # full-rank information matrix admits every vector
    design = Design([-0.8, -0.2, 0.4, 0.9], [0.25, 0.25, 0.25, 0.25])
    for p in range(4):
        c = np.zeros(4)
        c[p] = 1.0
        assert math.isfinite(phi_c(design, c, 4))


def test_phi_c_values():
    assert phi_c(TWO_POINT, [0, 1, 0], 3) == pytest.approx(1.0, abs=1e-12)
    assert phi_c(ONE_POINT, [1, 0], 2) == math.inf
    assert phi_c(TWO_POINT, [1.0], 1) == pytest.approx(1.0, abs=1e-12)


def test_phi_c_rejects_wrong_length():
    with pytest.raises(ValueError):
        phi_c(TWO_POINT, [1.0, 0.0], 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phi_c_rejects_non_finite_vector(bad):
    # used to return nan, which is neither a value nor the inf sentinel
    with pytest.raises(ValueError, match="finite"):
        phi_c(TWO_POINT, [bad, 0.0], 2)


def test_phi_c_maps_monomial_coefficients():
    # c = (1, 1) asks for theta_1 + theta_2; with d = A c the value matches
    # the monomial moment matrix sum_i w_i f(x_i) f(x_i)^T
    design = Design([-0.5, 0.25, 1.0], [0.3, 0.3, 0.4])
    f = np.vstack([design.support, design.support**2])
    monomial = (f * design.weights) @ f.T
    c = np.array([1.0, 1.0])
    assert phi_c(design, c, 2) == pytest.approx(c @ np.linalg.solve(monomial, c), rel=1e-12)


def test_phi_c_raises_past_the_double_range():
    # |z|**2 for the equal-weight design on s_points(208) at (415, 247) is no
    # double; z @ z used to emit numpy's overflow warning and return inf,
    # the sentinel for an inestimable c
    support = s_points(208)
    design = Design(support, np.full(support.size, 1.0 / support.size))
    with pytest.raises(NumericalDegeneracyError, match="overflows the double range"):
        phi_c(design, DesignProblem(415, 247).unit_vector(), 415)


def test_phi_c_keeps_a_square_that_is_a_double():
    # |z|**2 = 1.44e308 is a double although 2 * max|z|**2 is not: only a
    # square that leaves the double range is refused
    z = np.array([1.2e154, 1e140])
    weights = np.array([0.5, 0.5])
    g = np.diag(1.0 / (np.sqrt(weights) * z))  # B^T = diag(1 / z), d = (1, 1)
    assert _phi_c(g, weights, np.ones(2)) == pytest.approx(z @ z, rel=1e-14)


def test_certificate_identity_golden():
    # (3, 3): h * sum_i g(x_i) w_i T_3(x_i) = d_3 = (0, 0, 4) with h = 4
    problem = DesignProblem(3, 3)
    result = solve(problem)
    for design in result.designs:
        h, residual = certificate_identity(design, problem, result.certificate(design.support))
        assert h == pytest.approx(4.0, rel=1e-15)
        assert residual <= 1e-15
    h, residual = certificate_identity(ONE_POINT, DesignProblem(2, 1), np.zeros(1))
    assert h == residual == math.inf
    # (2, 1): h = 1 from d_1 = (1, 0); only the g_2 coordinate misses, by 2 (0.6 - 0.4)
    h, residual = certificate_identity(Design([-1.0, 1.0], [0.4, 0.6]), DesignProblem(2, 1),
                                       np.array([-1.0, 1.0]))
    assert h == 1.0 and residual == pytest.approx(0.4, rel=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_generalized_inverse_independence(seed):
    # for admissible (design, c) the criterion, a least-squares solve on the
    # weighted basis values, must match d^T v with v a least-squares solution
    # of Mv = d, where d = A c carries c into the basis of M
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 6))
    support = np.unique(np.round(rng.uniform(-1, 1, size=size), 3))
    support = support[support != 0.0]
    if support.size < 2:
        return
    weights = rng.uniform(0.1, 1.0, size=support.size)
    design = Design(support, weights / weights.sum())
    n = int(rng.integers(1, support.size + 1))
    p = int(rng.integers(1, n + 1))
    c = np.zeros(n)
    c[p - 1] = 1.0
    value = phi_c(design, c, n)
    if not math.isfinite(value):
        return
    g = intercept_free_vander(design.support, n)
    m = (g.T * design.weights) @ g  # M = G diag(w) G^T, with G[j, i] = g_j(x_i)
    m = 0.5 * (m + m.T)  # unsymmetrized, lstsq misses phi_c by 1.7e-7 relative at seed 3189
    d = power_coefficients(n, p)
    v = np.linalg.lstsq(m, d, rcond=None)[0]
    assert value == pytest.approx(float(d @ v), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("n,p", [(3, 1), (3, 3), (4, 2), (5, 4)])
def test_monotonicity_adding_point_never_beats_optimum(n, p):
    problem = DesignProblem(n, p)
    result = solve(problem)
    c = problem.unit_vector()
    for design in result.designs:
        for extra in (-0.85, 0.1, 0.6):
            if np.any(design.support == extra):
                continue
            support = np.append(design.support, extra)
            order = np.argsort(support)
            weights = np.append(design.weights * 0.95, 0.05)
            modified = Design(support[order], weights[order])
            assert phi_c(modified, c, n) >= result.variance - 1e-8
