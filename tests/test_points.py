import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from polydesign import (
    InvalidOrderError,
    Polynomial,
    e_polynomial,
    s_points,
    t_points,
    x_points,
)

SQRT2 = math.sqrt(2.0)


def chebyshev_t(s):
    # T_s for odd s, which equals g_s = T_s - T_s(0)
    return Polynomial(np.eye(s)[s - 1])


def test_s_points_golden():
    np.testing.assert_array_equal(s_points(1).points, [-1.0, 1.0])
    np.testing.assert_allclose(s_points(2).points, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)


def test_x_points_golden():
    np.testing.assert_allclose(x_points(1).points, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)
    np.testing.assert_array_equal(x_points(0).points, [-1.0, 1.0])


def test_x_points_k2_cosines():
    expected = [-1.0, -math.cos(math.pi / 5), -math.cos(2 * math.pi / 5),
                math.cos(2 * math.pi / 5), math.cos(math.pi / 5), 1.0]
    np.testing.assert_allclose(x_points(2).points, expected, atol=1e-15)


def test_t_points_golden():
    np.testing.assert_array_equal(t_points(1).points, [-1.0, 1.0])
    inner = math.sqrt(SQRT2 - 1.0)
    np.testing.assert_allclose(t_points(2).points, [-1.0, -inner, inner, 1.0], atol=1e-15)


@pytest.mark.parametrize("k", range(1, 9))
def test_family_sizes_and_endpoints(k):
    s, x, t = s_points(k), x_points(k), t_points(k)
    assert s.points.size == 2 * k and t.points.size == 2 * k
    assert x.points.size == 2 * k + 2
    for fam in (s, x, t):
        assert fam.points[0] == -1.0 and fam.points[-1] == 1.0
        assert np.all(np.diff(fam.points) > 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_family_symmetry_exact(k):
    for fam in (s_points(k), x_points(k), t_points(k)):
        assert np.all(fam.points + fam.points[::-1] == 0.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_family_extremal_values(k):
    for fam, poly in ((s_points(k), chebyshev_t(2 * k - 1)),
                      (x_points(k), chebyshev_t(2 * k + 1)),
                      (t_points(k), e_polynomial(k))):
        values = poly(fam.points)
        assert np.abs(np.abs(values) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("k", range(1, 9))
def test_sign_alternation(k):
    # Chebyshev families alternate strictly across the whole ordered list.
    for fam, poly in ((s_points(k), chebyshev_t(2 * k - 1)),
                      (x_points(k), chebyshev_t(2 * k + 1))):
        signs = np.sign(np.round(poly(fam.points)))
        assert np.all(signs[1:] == -signs[:-1])
    # The even family alternates on each half and pairs symmetrically
    # across the center: values at t_i and t_{2k+1-i} coincide.
    tfam = t_points(k)
    values = np.round(e_polynomial(k)(tfam.points))
    assert np.all(values == values[::-1])
    half = values[:k]
    assert np.all(half[1:] == -half[:-1])
    assert half[0] == 1.0


@pytest.mark.parametrize("k", range(1, 9))
def test_interior_points_are_derivative_roots(k):
    for fam, poly in ((s_points(k), chebyshev_t(2 * k - 1)),
                      (x_points(k), chebyshev_t(2 * k + 1)),
                      (t_points(k), e_polynomial(k))):
        # the derivative of the Chebyshev series does not see its constant c_0
        deriv = npcheb.chebder(np.concatenate([[0.0], poly.coeffs]))
        interior = fam.points[1:-1]
        if interior.size == 0:
            continue
        residual = np.abs(npcheb.chebval(interior, deriv)) / np.abs(deriv).max()
        assert residual.max() <= 1e-8


def test_rejects_bad_orders():
    with pytest.raises(InvalidOrderError):
        s_points(0)
    with pytest.raises(InvalidOrderError):
        t_points(0)
    with pytest.raises(InvalidOrderError):
        x_points(-1)


def test_family_kinds():
    assert s_points(2).kind == "S" and s_points(2).k == 2
    assert x_points(2).kind == "X"
    assert t_points(2).kind == "T"
