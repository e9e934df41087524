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
)

SQRT2 = math.sqrt(2.0)


def chebyshev_t(s):
    # T_s for odd s, which equals g_s = T_s - T_s(0)
    return Polynomial(np.eye(s)[s - 1])


def test_s_points_golden():
    np.testing.assert_array_equal(s_points(1), [-1.0, 1.0])
    np.testing.assert_allclose(s_points(2), [-1.0, -0.5, 0.5, 1.0], atol=1e-15)


def test_s_points_k3_cosines():
    expected = [-1.0, -math.cos(math.pi / 5), -math.cos(2 * math.pi / 5),
                math.cos(2 * math.pi / 5), math.cos(math.pi / 5), 1.0]
    np.testing.assert_allclose(s_points(3), expected, atol=1e-15)


def test_t_points_golden():
    np.testing.assert_array_equal(t_points(1), [-1.0, 1.0])
    inner = math.sqrt(SQRT2 - 1.0)
    np.testing.assert_allclose(t_points(2), [-1.0, -inner, inner, 1.0], atol=1e-15)


@pytest.mark.parametrize("k", range(1, 10))
def test_family_sizes_and_endpoints(k):
    for points in (s_points(k), t_points(k)):
        assert points.size == 2 * k
        assert points[0] == -1.0 and points[-1] == 1.0
        assert np.all(np.diff(points) > 0)


@pytest.mark.parametrize("k", range(1, 10))
def test_family_symmetry_exact(k):
    for points in (s_points(k), t_points(k)):
        assert np.all(points + points[::-1] == 0.0)


@pytest.mark.parametrize("k", range(1, 10))
def test_family_extremal_values(k):
    for points, poly in ((s_points(k), chebyshev_t(2 * k - 1)),
                         (t_points(k), e_polynomial(k))):
        values = poly(points)
        assert np.abs(np.abs(values) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("k", range(1, 10))
def test_sign_alternation(k):
    # Chebyshev families alternate strictly across the whole ordered list.
    signs = np.sign(np.round(chebyshev_t(2 * k - 1)(s_points(k))))
    assert np.all(signs[1:] == -signs[:-1])
    # The even family alternates on each half and pairs symmetrically
    # across the center: values at t_i and t_{2k+1-i} coincide.
    values = np.round(e_polynomial(k)(t_points(k)))
    assert np.all(values == values[::-1])
    half = values[:k]
    assert np.all(half[1:] == -half[:-1])
    assert half[0] == 1.0


@pytest.mark.parametrize("k", range(1, 10))
def test_interior_points_are_derivative_roots(k):
    for points, poly in ((s_points(k), chebyshev_t(2 * k - 1)),
                         (t_points(k), e_polynomial(k))):
        # the derivative of the Chebyshev series does not see its constant c_0
        deriv = npcheb.chebder(np.concatenate([[0.0], poly.coeffs]))
        interior = points[1:-1]
        if interior.size == 0:
            continue
        residual = np.abs(npcheb.chebval(interior, deriv)) / np.abs(deriv).max()
        assert residual.max() <= 1e-8


def test_rejects_bad_orders():
    # 2.5 used to escape from range() as a TypeError, and True to give k = 1
    for family in (s_points, t_points):
        for k in (0, -1, 2.5, 2.0, True, "2"):
            with pytest.raises(InvalidOrderError):
                family(k)
