import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from polydesign import (
    Design,
    DesignProblem,
    InvalidCertificateError,
    InvalidOrderError,
    NumericalDegeneracyError,
    Polynomial,
    certificate_identity,
    coefficient,
    e_polynomial,
    phi_c,
    solve,
    verify,
)
from polydesign.points import s_points, t_points
from polydesign.polynomial import intercept_free_vander, power_coefficients

from case_c_scan import lagrange_columns

# on a failing example hypothesis imports libcst, whose mypy_extensions
# warning -W error would turn into an INTERNALERROR instead of a report
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SQRT2 = math.sqrt(2.0)


def _g(s):
    # g_s = T_s - T_s(0) as a Polynomial; g_0 = T_0 - T_0(0) is the zero polynomial
    return Polynomial(np.eye(s)[s - 1] if s else [0.0])


def test_eval_monomial_cube():
    # x**3 = (3 T_1 + T_3) / 4
    assert Polynomial.from_monomial([0, 0, 0, 1])(0.5) == 0.125


def test_eval_cubic_at_one():
    assert Polynomial([0, 0, 1])(1.0) == 1.0


def test_eval_scaled_cubic_at_extremal_point():
    # x**3 - 0.75 x = T_3 / 4 at x = 0.5, an extremal point of the cubic
    assert Polynomial([0, 0, 0.25])(0.5) == pytest.approx(-0.25, abs=1e-15)


def test_eval_vectorized():
    # T_1 + 2 (T_2 + 1) + 3 T_3 = 12 x**3 + 4 x**2 - 8 x
    poly = Polynomial([1.0, 2.0, 3.0])
    xs = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(poly(xs), [0.0, 0.0, 96.0], atol=0)


@pytest.mark.filterwarnings("error")
def test_eval_near_the_double_range():
    # 1e308 (4 x - 4 x**3): Clenshaw on the raw coefficients overflows in its
    # intermediates, giving [nan, inf, nan]; the values are finite
    poly = Polynomial([1e308, 0.0, -1e308])
    np.testing.assert_array_equal(poly([-1.0, 0.5, 1.0]), [0.0, 1.5e308, 0.0])


def test_eval_scaling_is_exact():
    # scaling the series by a power of two, and back, changes no bit
    v = np.array([0.3, -1.7, 2.9, 0.1])
    series = np.concatenate([[-(v @ [0.0, -1.0, 0.0, 1.0])], v])  # c_0 = -sum_j v_j T_j(0)
    xs = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_array_equal(Polynomial(v)(xs), npcheb.chebval(xs, series))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        Polynomial([0.0, bad, 0.0, 4.0])


@pytest.mark.parametrize("coeffs", [[], [[0.0, 1.0], [1.0, 0.0]]])
def test_rejects_empty_or_multidimensional_coefficients(coeffs):
    with pytest.raises(ValueError, match="non-empty one-dimensional"):
        Polynomial(coeffs)


def test_stored_coefficients_are_a_read_only_copy():
    source = np.array([0.0, 0.0, 1.0])
    poly = Polynomial(source)
    source[2] = 0.0
    assert poly(1.0) == 1.0
    with pytest.raises(ValueError):
        poly.coeffs[2] = 0.0


def test_degree_ignores_trailing_zeros():
    assert Polynomial([0.0, 1.0, 0.0, 0.0]).degree == 2
    assert Polynomial([0.0]).degree == 0


def test_chebyshev_low_orders():
    # g_1 = x, g_2 = T_2 + 1 = 2 x**2 and g_3 = T_3 = 4 x**3 - 3 x, read out in monomials
    expected = {1: [0, 1, 0, 0], 2: [0, 0, 2, 0], 3: [0, -3, 0, 4]}
    for s, monomial in expected.items():
        assert [coefficient(_g(s), q) for q in range(4)] == monomial


@pytest.mark.parametrize("s", range(21))
def test_chebyshev_cosine_identity(s):
    theta = np.linspace(0.0, np.pi, 200)
    values = _g(s)(np.cos(theta))
    assert np.abs(values - (np.cos(s * theta) - math.cos(s * math.pi / 2))).max() <= 1e-13


@pytest.mark.parametrize("s", range(31))
def test_chebyshev_t_converts_to_unit_vector(s):
    # T_s - T_s(0) in monomials, from numpy's exact-integer cheb2poly
    monomial = npcheb.cheb2poly(np.eye(s + 1)[s])
    monomial[0] = 0.0
    np.testing.assert_array_equal(Polynomial.from_monomial(monomial).coeffs, _g(s).coeffs)


def test_from_monomial_rejects_nonzero_intercept_and_overflow():
    with pytest.raises(InvalidCertificateError, match="zero intercept"):
        Polynomial.from_monomial([0.5, 0.0, 0.5])
    with pytest.raises(ValueError, match="finite"):
        Polynomial.from_monomial([0.0, math.inf])
    # the T_1 coefficient 1.5e308 + 0.75e308 is beyond the double range
    with pytest.raises(ValueError, match="finite"):
        Polynomial.from_monomial([0.0, 1.5e308, 0.0, 1e308])


def test_intercept_free_vander_maps_to_regression_vector():
    # x**q = 2**(1 - q) sum_i C(q, i) g_{q - 2i} over q - 2i >= 1: the
    # T_j(0) constants cancel because x**q vanishes at 0. This exact inverse
    # of A takes the g-basis values back to f(x)
    n = 30
    x = np.linspace(-1.0, 1.0, 1001)
    inverse = np.zeros((n, n))
    for q in range(1, n + 1):
        for i in range((q - 1) // 2 + 1):
            inverse[q - 1, q - 2 * i - 1] = math.comb(q, i) * 2.0 ** (1 - q)
    got = inverse @ intercept_free_vander(x, n).T
    assert np.abs(got - np.stack([x**q for q in range(1, n + 1)])).max() <= 1e-13


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
    coeffs = [0.0] + coeffs  # zero intercept; c_0 is implied
    got = Polynomial.from_monomial(coeffs).coeffs
    assert [float(c).hex() for c in got] == [c.hex() for c in _fraction_chebyshev(coeffs)[1:]]


# 101 points of the verify grid, both endpoints included
_ACCURACY_POINTS = np.linspace(-1.0, 1.0, 10001)[::100]


@pytest.mark.parametrize(
    "kind, s", [("T", 29), ("T", 30)] + [("E", 2 * k) for k in range(1, 16)],
    ids=["T29", "T30"] + [f"E{2 * k}" for k in range(1, 16)],
)
def test_evaluation_matches_60_digit_reference(kind, s):
    # g_s = T_s - T_s(0) against cos(s arccos x) - cos(s pi / 2), and the
    # even certificate E_2k against cos(k arccos(y(x))) with
    # y(x) = (1 + c) x**2 - c, c = cos(pi / 2k), all at 60 digits: this
    # measures the stored coefficients' rounding and the evaluation's
    mpmath = pytest.importorskip("mpmath")
    poly = _g(s) if kind == "T" else e_polynomial(s // 2)
    values = poly(_ACCURACY_POINTS)
    with mpmath.workdps(60):
        c = mpmath.cos(mpmath.pi / s)
        for x, value in zip(_ACCURACY_POINTS, values):
            x = mpmath.mpf(float(x))
            if kind == "T":
                exact = mpmath.cos(s * mpmath.acos(x)) - mpmath.cos(s * mpmath.pi / 2)
            else:
                exact = mpmath.cos(s // 2 * mpmath.acos((1 + c) * x**2 - c))
            assert abs(mpmath.mpf(float(value)) - exact) <= 1e-13, x


def test_e_polynomial_k1_is_x_squared():
    # x**2 = g_2 / 2
    np.testing.assert_allclose(e_polynomial(1).coeffs, [0, 0.5], atol=1e-15)


def test_e_polynomial_k2_coefficients():
    # composing the degree-2 Chebyshev polynomial with
    # y = x**2 (1 + sqrt(2)/2) - sqrt(2)/2 gives
    # (3 + 2 sqrt(2)) x**4 - (2 + 2 sqrt(2)) x**2
    expected = [0.0, 0.0, -(2 + 2 * SQRT2), 0.0, 3 + 2 * SQRT2]
    got = [coefficient(e_polynomial(2), q) for q in range(5)]
    np.testing.assert_allclose(got, expected, atol=1e-14)


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
    assert poly(1.0) == pytest.approx(1.0, abs=1e-14)
    assert poly(-1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("k", range(1, 11))
def test_e_polynomial_even_and_bounded(k):
    poly = e_polynomial(k)
    assert np.all(poly.coeffs[0::2] == 0.0)  # the coefficients of odd g_j
    assert poly(0.0) == pytest.approx(0.0, abs=1e-14)
    overshoot = np.abs(poly.peaks()[1]).max() - 1.0  # on the whole of [-1, 1]
    assert overshoot <= 1e-14


def test_peaks_of_padded_degree_one_are_the_endpoints():
    # P' is a nonzero constant: no critical point inside
    points, values = Polynomial([2.0, 0.0, 0.0, 0.0]).peaks()
    np.testing.assert_array_equal(points, [-1.0, 1.0])
    np.testing.assert_array_equal(values, [-2.0, 2.0])


def test_peaks_of_zero_polynomial():
    points, values = Polynomial([0.0, 0.0, 0.0]).peaks()
    np.testing.assert_array_equal(points, [-1.0, 1.0])
    assert np.abs(values).max() == 0.0


def test_peaks_near_the_double_range():
    # P' of the raw coefficients overflows, and chebroots then raises a
    # LinAlgError; P is scaled down first, by a power of two here, so the
    # points are those of the scaled-down P to the bit
    small = Polynomial([1.5, 0.0, 1.0])
    points = small.peaks()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        big_points, big_values = Polynomial(small.coeffs * 2.0**1023).peaks()
    np.testing.assert_array_equal(big_points, points)
    assert not np.isfinite(big_values).all()  # P(1) = 2.5 * 2**1023
    tame_points, tame_values = Polynomial(small.coeffs * 2.0**1020).peaks()
    np.testing.assert_array_equal(tame_points, points)
    np.testing.assert_array_equal(tame_values, small(points) * 2.0**1020)


def _unit(s):
    v = np.zeros(s)
    v[-1] = 1.0
    return Polynomial(v)


def test_peaks_maximum_matches_a_fine_grid():
    # E_2k and T_s = g_s (odd s): a grid of 2,000,001 points holds their
    # peaks closely enough, since each reaches its maximum at x = +-1
    grid = np.linspace(-1.0, 1.0, 2_000_001)
    polys = [e_polynomial(k) for k in range(1, 16)] + [_unit(s) for s in range(1, 31, 2)]
    for poly in polys:
        peak = np.abs(poly.peaks()[1]).max()
        assert abs(peak - np.abs(poly(grid)).max()) <= 1e-13, poly.coeffs.size


@pytest.mark.parametrize("s", range(1, 31))
def test_peaks_maximum_of_g_s_is_exact(s):
    # max |T_s - T_s(0)| = 1 + |T_s(0)|; for s = 4, 8, ... it lies inside,
    # where the grid above falls short by up to 1.9e-11 (s = 20)
    expected = 1.0 + abs(math.cos(s * math.pi / 2))
    assert np.abs(_unit(s).peaks()[1]).max() == pytest.approx(expected, abs=1e-13)


def test_e_polynomial_rejects_k_zero():
    # 2.0 used to escape from chebinterpolate as a TypeError
    for k in (0, 2.0, 2.5, True):
        with pytest.raises(InvalidOrderError):
            e_polynomial(k)


def _columns(supports, p):
    # a_{i,p} for each row of a (rows, m) stack of supports
    supports = np.asarray(supports, dtype=float)
    m = supports.shape[-1]
    return lagrange_columns(intercept_free_vander(supports, m), power_coefficients(m, p))


def _signed_column(nodes, p):
    # a_{i,p}, the coefficient of x**p in the i-th intercept-free Lagrange
    # basis polynomial, for every node i
    return _columns([nodes], p)[0]


def test_lagrange_two_nodes():
    # nodes (-1, 1): basis polynomials (x**2 - x) / 2 and (x**2 + x) / 2
    np.testing.assert_allclose(_signed_column([-1.0, 1.0], 1), [-0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(_signed_column([-1.0, 1.0], 2), [0.5, 0.5], atol=1e-15)


def test_lagrange_cubic_coefficient():
    # nodes (-1, 1/2, 1), i = 2: expand x (x**2 - 1) / (-3/8)
    assert _signed_column([-1.0, 0.5, 1.0], 3)[1] == pytest.approx(-8.0 / 3.0, abs=1e-14)


def test_lagrange_zero_intercept_exact():
    # every basis function T_j - T_j(0) vanishes exactly at 0, so a node at 0
    # makes the system exactly singular rather than merely ill conditioned
    for p in (1, 2, 3):
        with pytest.raises(NumericalDegeneracyError):
            _columns(np.array([[-1.0, 0.0, 0.5]]), p)


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
    # L_i(x) = sum_p a_{i,p} x**p equals delta_ij at t_j, also where some
    # a_{i,p} vanish (for (-1, 1/2, 1), L_2 has no x**2 term)
    m = len(nodes)
    columns = np.column_stack([_columns(np.array([nodes]), p)[0] for p in range(1, m + 1)])
    for i in range(m):
        poly = Polynomial.from_monomial(np.concatenate([[0.0], columns[i]]))
        for j, node in enumerate(nodes):
            expected = 1.0 if i == j else 0.0
            assert poly(node) == pytest.approx(expected, abs=1e-10)


def test_lagrange_rejects_bad_nodes():
    # a repeated node, sorted or not, makes two columns of the system equal,
    # so it is exactly singular; the solve does not return a basis for it
    for nodes in ([-1.0, -1.0, 0.5], [0.5, -0.25, 0.5]):
        with pytest.raises(NumericalDegeneracyError, match="singular"):
            _columns(np.array([nodes]), 2)


def _per_node_product(nodes, i):
    # an independent construction of the i-th basis polynomial (1-based), in
    # monomial coefficients: one np.convolve per factor
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
        list(t_points(12)),
        list(s_points(15)),
    ],
)
def test_lagrange_columns_batch_matches_single_solves_bit_for_bit(nodes):
    # each support of a stack is solved as if alone, so the scan of every
    # case-C drop, one stack of n + 1 supports, decides each drop on its own
    t = np.asarray(nodes)
    stack = np.array([t, -t[::-1], 0.5 * t])
    for p in range(1, t.size + 1):
        batch = _columns(stack, p)
        for row, support in zip(batch, stack):
            alone = _columns(support[None], p)[0]
            np.testing.assert_array_equal(row.view(np.int64), alone.view(np.int64))
        product = np.array([_per_node_product(t, i)[p] for i in range(1, t.size + 1)])
        assert np.abs(batch[0] - product).sum() <= 1e-12 * np.abs(product).sum(), p


def test_lagrange_basis_matches_mpmath_at_degree_30():
    # 60-digit recomputation of a_{i,p} from the same double nodes, for the
    # supports of the (30, p) problems and four one-point drops of the (29, p)
    # candidates (the central and the endpoint pair). h = sum_i |a_{i,p}|
    # and the 1-norm of the error agree to 1e-14 relative (1.1e-15 and
    # 3.3e-15 worst). Single entries of the (30, p) supports agree to 1e-11
    # relative (7.6e-14 worst); near-cancelling entries of the drops do not
    # (6e4 in a column of 1-norm 3.5e10 is off by 1.9e-11 relative).
    mpmath = pytest.importorskip("mpmath")
    xs = s_points(15)
    supports = [(t_points(15), 0, True), (s_points(15), 1, True)]
    supports += [(np.delete(xs, d), 1, False) for d in (0, 14, 15, 29)]
    with mpmath.workdps(60):
        for nodes, parity, per_entry in supports:
            exact = [mpmath.mpf(float(x)) for x in nodes]
            reference = []
            for i, ti in enumerate(exact):
                numer, denom = [mpmath.mpf(0), mpmath.mpf(1)], ti
                for j, tj in enumerate(exact):
                    if j != i:
                        numer = [a - tj * b for a, b in zip([0] + numer, numer + [0])]
                        denom *= ti - tj
                reference.append([c / denom for c in numer])
            for p in range(1, len(nodes) + 1):
                if p % 2 != parity:  # the (n, p) problems use this support
                    continue
                ref = [row[p] for row in reference]
                norm = sum(abs(r) for r in ref)
                column = _signed_column(nodes, p)
                h = np.abs(column).sum()
                errors = [abs(mpmath.mpf(float(a)) - r) for a, r in zip(column, ref)]
                assert abs(h - norm) <= 1e-14 * norm, p
                assert sum(errors) <= 1e-14 * norm, p
                if per_entry:
                    assert all(e <= 1e-11 * abs(r) for e, r in zip(errors, ref)), p


def test_coefficient_golden_values():
    assert coefficient(_g(3), 3) == 4.0
    scaled = Polynomial.from_monomial([0, -0.75, 0, 1])
    assert [coefficient(scaled, q) for q in range(4)] == [0.0, -0.75, 0.0, 1.0]
    assert coefficient(_g(1), 5) == 0.0


def test_coefficient_rejects_negative_index():
    with pytest.raises(ValueError):
        coefficient(Polynomial([1.0]), -1)


def test_coefficient_rejects_non_integer_index():
    with pytest.raises(ValueError):
        coefficient(_g(3), 1.5)
    assert coefficient(_g(3), np.int64(1)) == -3.0


@pytest.mark.parametrize("p", [True, False])
def test_coefficient_rejects_bool_index(p):
    # True used to read as p = 1 (-3.0 for g_3) and False as p = 0
    with pytest.raises(ValueError, match="coefficient index must be an integer"):
        coefficient(_g(3), p)


@pytest.mark.parametrize(
    "entry", ["coefficient", "phi_c", "certificate_identity", "verify", "solve"]
)
def test_coefficient_index_beyond_double_range_raises_library_error(entry):
    # the coefficients of x**1050 in T_j exceed the double range; each entry
    # point used to let the raw OverflowError of the conversion escape
    problem = DesignProblem(1100, 1050)
    design = Design([-1.0, 1.0], [0.5, 0.5])
    calls = {
        "coefficient": lambda: coefficient(Polynomial([1.0] * 1100), 1050),
        "phi_c": lambda: phi_c(design, np.eye(1100)[1049], 1100),
        "certificate_identity": lambda: certificate_identity(design, problem, np.ones(2)),
        "verify": lambda: verify(design, problem, Polynomial([1.0])),
        "solve": lambda: solve(problem),
    }
    with pytest.raises(NumericalDegeneracyError, match="overflow"):
        calls[entry]()


# Interpolation property: sum_i v_i L_i is the unique intercept-free
# degree-m interpolant of the values v_i. The independent oracle is a direct
# solve with the intercept-free Vandermonde matrix V[q, i] = t_i**q.
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
    t = np.asarray(nodes)
    vander = np.vstack([t**q for q in range(1, m + 1)])
    combo = np.zeros(m + 1)
    for p in range(1, m + 1):
        oracle = np.linalg.solve(vander, np.eye(m)[p - 1])  # column p of V^-1
        column = _signed_column(nodes, p)
        atol = 1e-12 * np.abs(oracle).max()  # entries that vanish exactly
        np.testing.assert_allclose(column, oracle, rtol=1e-10, atol=atol)
        combo[p] = column @ values
    interp = Polynomial.from_monomial(combo)
    for node, value in zip(nodes, values):
        assert interp(node) == pytest.approx(value, abs=1e-8)
    # the unique coefficient vector over powers 1..m interpolating the values
    np.testing.assert_allclose(combo[1:], np.linalg.solve(vander.T, values), rtol=1e-6, atol=1e-8)
