import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydesign import (
    InvalidNodesError,
    InvalidOrderError,
    Polynomial,
    chebyshev_t,
    coefficient,
    e_polynomial,
    lagrange_no_intercept,
)
from polydesign.points import s_points, t_points
from polydesign.polynomial import lagrange_basis_no_intercept

SQRT2 = math.sqrt(2.0)


def test_eval_monomial_cube():
    assert Polynomial([0, 0, 0, 1])(0.5) == 0.125


def test_eval_cubic_at_one():
    assert Polynomial([0, -3, 0, 4])(1.0) == 1.0


def test_eval_scaled_cubic_at_extremal_point():
    # x**3 - 0.75 x at x = 0.5, an extremal point of the cubic
    assert Polynomial([0, -0.75, 0, 1])(0.5) == pytest.approx(-0.25, abs=1e-15)


def test_eval_vectorized():
    poly = Polynomial([1.0, 2.0, 3.0])
    xs = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(poly(xs), [2.0, 1.0, 17.0], atol=0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        Polynomial([0.0, bad, 0.0, 4.0])


def test_stored_coefficients_are_a_read_only_copy():
    source = np.array([0.0, -3.0, 0.0, 4.0])
    poly = Polynomial(source)
    source[3] = 0.0
    assert poly(1.0) == 1.0
    with pytest.raises(ValueError):
        poly.coeffs[3] = 0.0


def test_degree_ignores_trailing_zeros():
    assert Polynomial([0.0, 1.0, 0.0, 0.0]).degree == 1
    assert Polynomial([0.0]).degree == 0


def test_padded_extends_with_zeros():
    padded = Polynomial([1.0, 2.0]).padded(4)
    np.testing.assert_array_equal(padded.coeffs, [1.0, 2.0, 0.0, 0.0, 0.0])


def test_chebyshev_low_orders():
    np.testing.assert_array_equal(chebyshev_t(0).coeffs, [1])
    np.testing.assert_array_equal(chebyshev_t(1).coeffs, [0, 1])
    np.testing.assert_array_equal(chebyshev_t(2).coeffs, [-1, 0, 2])
    np.testing.assert_array_equal(chebyshev_t(3).coeffs, [0, -3, 0, 4])


def test_chebyshev_rejects_negative_order():
    with pytest.raises(InvalidOrderError):
        chebyshev_t(-1)


@pytest.mark.parametrize("s", range(21))
def test_chebyshev_cosine_identity(s):
    theta = np.linspace(0.0, np.pi, 200)
    values = chebyshev_t(s)(np.cos(theta))
    assert np.abs(values - np.cos(s * theta)).max() <= 1e-10


@pytest.mark.parametrize("s", range(31))
def test_chebyshev_t_converts_to_unit_vector(s):
    expected = np.zeros(s + 1)
    expected[s] = 1.0
    np.testing.assert_array_equal(chebyshev_t(s)._chebyshev, expected)


def _fraction_chebyshev(coeffs):
    # x**j = 2**(1 - j) sum_i C(j, i) T_{j - 2i}, T_0 term halved, in exact rationals
    sums = [Fraction(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        for i in range(j // 2 + 1):
            term = Fraction(c) * math.comb(j, i) * Fraction(2) ** (1 - j)
            k = j - 2 * i
            sums[k] += term / 2 if k == 0 else term
    return [float(v) for v in sums]


_DYADIC = st.builds(math.ldexp, st.integers(-(2**20), 2**20), st.integers(-60, 20))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(_DYADIC, min_size=1, max_size=9))
def test_chebyshev_conversion_matches_exact_rationals(coeffs):
    got = Polynomial(coeffs)._chebyshev
    assert [float(c).hex() for c in got] == [c.hex() for c in _fraction_chebyshev(coeffs)]


# 101 points of the verify grid, both endpoints included
_ACCURACY_POINTS = np.linspace(-1.0, 1.0, 10001)[::100]


@pytest.mark.parametrize(
    "make", [lambda: chebyshev_t(29), lambda: chebyshev_t(30), lambda: e_polynomial(15)],
    ids=["T29", "T30", "E30"],
)
def test_evaluation_matches_60_digit_reference(make):
    # the reference evaluates the same stored double coefficients at 60
    # digits, so only the evaluation's own rounding is measured
    mpmath = pytest.importorskip("mpmath")
    poly = make()
    values = poly(_ACCURACY_POINTS)
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(float(c)) for c in poly.coeffs]
        for x, value in zip(_ACCURACY_POINTS, values):
            exact = mpmath.polyval(coeffs[::-1], mpmath.mpf(float(x)))
            assert abs(mpmath.mpf(float(value)) - exact) <= 1e-13, x


def test_e_polynomial_k1_is_x_squared():
    np.testing.assert_allclose(e_polynomial(1).coeffs, [0, 0, 1], atol=1e-15)


def test_e_polynomial_k2_coefficients():
    # composing the degree-2 Chebyshev polynomial with
    # y = x**2 (1 + sqrt(2)/2) - sqrt(2)/2 gives
    # (3 + 2 sqrt(2)) x**4 - (2 + 2 sqrt(2)) x**2
    expected = [0.0, 0.0, -(2 + 2 * SQRT2), 0.0, 3 + 2 * SQRT2]
    np.testing.assert_allclose(e_polynomial(2).coeffs, expected, atol=1e-14)


def test_e_polynomial_k2_extremal_values():
    e4 = e_polynomial(2)
    inner = math.sqrt(SQRT2 - 1.0)
    assert e4(1.0) == pytest.approx(1.0, abs=1e-12)
    assert e4(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert e4(inner) == pytest.approx(-1.0, abs=1e-12)
    assert e4(-inner) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(1, 11))
def test_e_polynomial_value_one_at_endpoints(k):
    poly = e_polynomial(k)
    # endpoint values inherit the coefficient-storage rounding (~1.6e-10
    # at k = 10); for k <= 7 they hold to 1e-12
    tol = 1e-12 if k <= 7 else 2e-10
    assert poly(1.0) == pytest.approx(1.0, abs=tol)
    assert poly(-1.0) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("k", range(1, 11))
def test_e_polynomial_even_and_bounded(k):
    poly = e_polynomial(k)
    assert np.all(poly.coeffs[1::2] == 0.0)
    overshoot = np.abs(poly(np.linspace(-1.0, 1.0, 10001))).max() - 1.0
    # double-rounding of the stored coefficients alone moves the sup-norm
    # by up to ~1.3e-10 for k in {9, 10}; below that the 1e-10 bound holds
    assert overshoot <= (1e-10 if k <= 8 else 2e-10)


def test_e_polynomial_rejects_k_zero():
    with pytest.raises(InvalidOrderError):
        e_polynomial(0)


def test_lagrange_two_nodes():
    # nodes (-1, 1), first basis polynomial: (x**2 - x) / 2
    poly = lagrange_no_intercept([-1.0, 1.0], 1)
    np.testing.assert_allclose(poly.coeffs, [0.0, -0.5, 0.5], atol=1e-15)


def test_lagrange_cubic_coefficient():
    # nodes (-1, 1/2, 1), i = 2: expand x (x**2 - 1) / (-3/8)
    poly = lagrange_no_intercept([-1.0, 0.5, 1.0], 2)
    assert coefficient(poly, 3) == pytest.approx(-8.0 / 3.0, abs=1e-14)


def test_lagrange_zero_intercept_exact():
    for i in (1, 2, 3):
        poly = lagrange_no_intercept([-1.0, -0.5, 0.5], i)
        assert poly.coeffs[0] == 0.0
        assert poly(0.0) == 0.0


@pytest.mark.parametrize(
    "nodes",
    [
        [-1.0, 1.0],
        [-1.0, 0.5, 1.0],
        [-1.0, -0.5, 0.25, 0.75],
        [-0.9, -0.3, 0.2, 0.6, 1.0],
    ],
)
def test_lagrange_delta_property(nodes):
    m = len(nodes)
    for i in range(1, m + 1):
        poly = lagrange_no_intercept(nodes, i)
        for j, node in enumerate(nodes, start=1):
            expected = 1.0 if i == j else 0.0
            assert poly(node) == pytest.approx(expected, abs=1e-10)


def test_lagrange_rejects_bad_nodes():
    with pytest.raises(InvalidNodesError):
        lagrange_no_intercept([-1.0, -1.0, 0.5], 1)
    with pytest.raises(InvalidNodesError):
        lagrange_no_intercept([-1.0, 0.0, 0.5], 1)
    with pytest.raises(ValueError):
        lagrange_no_intercept([-1.0, 0.5], 3)


def _per_node_product(nodes, i):
    # the construction the batched basis reproduces: one np.convolve per factor
    t = np.asarray(nodes, dtype=float)
    numer, denom = np.array([0.0, 1.0]), t[i - 1]
    for j in range(t.size):
        if j != i - 1:
            numer = np.convolve(numer, np.array([-t[j], 1.0]))
            denom *= t[i - 1] - t[j]
    return numer / denom


@pytest.mark.parametrize(
    "nodes",
    [
        [0.75],
        [-1.0, 0.5, 1.0],
        [-0.9, -0.3, 0.2, 0.6, 1.0],
        list(t_points(12).points),
        list(s_points(15).points),
    ],
)
def test_lagrange_basis_rows_match_per_node_product_bit_for_bit(nodes):
    basis = lagrange_basis_no_intercept(nodes)
    m = len(nodes)
    assert basis.shape == (m, m + 1)
    # the intercept column is exactly +0.0; the per-node product may carry -0.0
    assert np.all(basis[:, 0] == 0.0) and not np.any(np.signbit(basis[:, 0]))
    for i in range(1, m + 1):
        row = lagrange_no_intercept(nodes, i).coeffs
        np.testing.assert_array_equal(row.view(np.int64), basis[i - 1].view(np.int64))
        expected = _per_node_product(nodes, i)
        np.testing.assert_array_equal(row[1:].view(np.int64), expected[1:].view(np.int64))


def test_lagrange_basis_rejects_bad_nodes():
    with pytest.raises(InvalidNodesError):
        lagrange_basis_no_intercept([-1.0, -1.0, 0.5])
    with pytest.raises(InvalidNodesError):
        lagrange_basis_no_intercept([-1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        lagrange_no_intercept([-1.0, 0.5], 0)


def test_lagrange_basis_matches_mpmath_at_degree_30():
    # 60-digit recomputation from the same double nodes. Column p holds the
    # a_{i,p} that give h = sum_i |a_{i,p}| and the weights; it agrees to
    # 1e-12 relative in that 1-norm (3.1e-13 worst), while single entries
    # agree to 2.3e-12 relative (worst: s-points, p = 19).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for nodes, parity in ((t_points(15).points, 0), (s_points(15).points, 1)):
            exact = [mpmath.mpf(float(x)) for x in nodes]
            reference = []
            for i, ti in enumerate(exact):
                numer, denom = [mpmath.mpf(0), mpmath.mpf(1)], ti
                for j, tj in enumerate(exact):
                    if j != i:
                        numer = [a - tj * b for a, b in zip([0] + numer, numer + [0])]
                        denom *= ti - tj
                reference.append([c / denom for c in numer])
            basis = lagrange_basis_no_intercept(nodes)
            for p in range(1, 31):
                if p % 2 != parity:  # the (n = 30, p) problems use this support
                    continue
                ref = [row[p] for row in reference]
                errors = [abs(mpmath.mpf(float(a)) - r) for a, r in zip(basis[:, p], ref)]
                assert sum(errors) <= 1e-12 * sum(abs(r) for r in ref), p
                assert all(e <= 1e-11 * abs(r) for e, r in zip(errors, ref)), p


def test_coefficient_golden_values():
    assert coefficient(chebyshev_t(3), 3) == 4.0
    assert coefficient(Polynomial([0, -0.75, 0, 1]), 0) == 0.0
    assert coefficient(Polynomial([0, 1]), 5) == 0.0
    poly = lagrange_no_intercept([-1.0, 0.5, 1.0], 1)  # x (x - 1/2)(x - 1) / (-3)
    assert coefficient(poly, 3) == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_coefficient_rejects_negative_index():
    with pytest.raises(ValueError):
        coefficient(Polynomial([1.0]), -1)


# Interpolation property: sum_i v_i L_i is the unique intercept-free
# degree-m interpolant of the values v_i. The independent oracle is a direct
# Vandermonde solve over the basis x, ..., x**m.
_LATTICE = [x / 8.0 for x in range(-8, 9) if x != 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    nodes=st.lists(st.sampled_from(_LATTICE), min_size=1, max_size=6, unique=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_lagrange_combination_interpolates(nodes, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2.0, 2.0, size=len(nodes))
    m = len(nodes)
    combo = np.zeros(m + 1)
    for i in range(1, m + 1):
        combo += values[i - 1] * lagrange_no_intercept(nodes, i).padded(m).coeffs
    assert combo[0] == 0.0
    interp = Polynomial(combo)
    for node, value in zip(nodes, values):
        assert interp(node) == pytest.approx(value, abs=1e-8)
    # oracle: the unique coefficient vector over powers 1..m interpolating
    # the values, from a direct Vandermonde solve
    t = np.asarray(nodes)
    vander = np.vstack([t**q for q in range(1, m + 1)]).T
    oracle = np.linalg.solve(vander, values)
    np.testing.assert_allclose(combo[1:], oracle, rtol=1e-6, atol=1e-8)
