import math

import numpy as np
import pytest

from polydesign import (
    Design,
    DesignProblem,
    InvalidCertificateError,
    Polynomial,
    certificate_for,
    coefficient,
    e_polynomial,
    phi_c,
    solve,
    verify,
)
from polydesign.polynomial import intercept_free_vander
from polydesign.solver import _lagrange_columns

SQRT2 = math.sqrt(2.0)


def _monomials(poly, n):
    return [coefficient(poly, q) for q in range(n + 1)]


def test_certificate_for_goldens():
    # (3, 3): T_3 = g_3, a unit vector, with monomials 4 x**3 - 3 x
    cert = certificate_for(DesignProblem(3, 3))
    np.testing.assert_array_equal(cert.coeffs, [0, 0, 1])
    assert _monomials(cert, 3) == [0, -3, 0, 4]
    # (3, 2): x**2 = g_2 / 2, padded to degree 3
    cert = certificate_for(DesignProblem(3, 2))
    np.testing.assert_allclose(cert.coeffs, [0, 0.5, 0], atol=1e-15)
    np.testing.assert_allclose(_monomials(cert, 3), [0, 0, 1, 0], atol=1e-15)
    cert = certificate_for(DesignProblem(4, 2))
    np.testing.assert_allclose(cert.coeffs, e_polynomial(2).coeffs, atol=0)
    assert cert(1.0) == pytest.approx(1.0, abs=1e-15)


def test_certificate_padding_matches_degree():
    # one coefficient per g_1..g_n
    assert certificate_for(DesignProblem(5, 2)).coeffs.size == 5
    assert certificate_for(DesignProblem(4, 1)).coeffs.size == 4
    assert certificate_for(DesignProblem(3, 1)).coeffs.size == 3


def test_verify_cubic_leading_coefficient():
    problem = DesignProblem(3, 3)
    result = solve(problem)
    report = verify(result.designs[0], problem, result.certificate)
    assert report.verdict
    assert report.h == pytest.approx(4.0, rel=1e-12)
    assert report.variance_formula == pytest.approx(16.0, rel=1e-12)
    assert report.variance_matrix == pytest.approx(16.0, rel=1e-8)


def test_verify_quartic_even_coefficient():
    problem = DesignProblem(4, 2)
    result = solve(problem)
    report = verify(result.designs[0], problem, result.certificate)
    assert report.verdict
    assert report.variance_formula == pytest.approx(12 + 8 * SQRT2, rel=1e-10)


def test_verify_accepts_canonical_unsigned_certificate():
    # the canonical orientation may differ from the solver's; h is solved
    # with its sign free, so both orientations verify
    problem = DesignProblem(3, 1)
    result = solve(problem)
    report = verify(result.designs[0], problem, certificate_for(problem))
    assert report.verdict
    assert report.h == pytest.approx(-3.0, rel=1e-12)
    assert report.variance_formula == pytest.approx(9.0, rel=1e-10)


def test_verify_rejects_uniform_weights():
    problem = DesignProblem(4, 3)
    design = Design([-1.0, -0.5, 0.5, 1.0], [0.25, 0.25, 0.25, 0.25])
    report = verify(design, problem, Polynomial([0.0, 0.0, 1.0, 0.0]))  # T_3
    assert not report.verdict
    assert report.condition1_ok and report.condition2_ok
    assert report.condition3_residual > 1e-3


def test_verify_scaling_sanity():
    problem = DesignProblem(3, 3)
    result = solve(problem)
    design = result.designs[0]
    oversized = Polynomial(result.certificate.coeffs * 2.0)
    report = verify(design, problem, oversized)
    assert not report.condition1_ok
    assert not report.verdict
    assert report.condition1_max == pytest.approx(2.0, rel=1e-12)
    # down-scalings are harmless: conditions (2), (3) use the rescaled form
    monic = Polynomial(result.certificate.coeffs * 0.25)
    report = verify(design, problem, monic)
    assert report.verdict
    assert report.condition1_max == pytest.approx(0.25, rel=1e-12)
    assert report.variance_formula == pytest.approx(16.0, rel=1e-10)


def test_verify_rejects_nonzero_intercept():
    # a zero intercept is part of the format; the monomial reader checks it
    problem = DesignProblem(2, 2)
    design = solve(problem).designs[0]
    with pytest.raises(InvalidCertificateError):
        verify(design, problem, Polynomial.from_monomial([0.5, 0.0, 0.5]))


def test_verify_rejects_zero_certificate():
    problem = DesignProblem(2, 2)
    design = solve(problem).designs[0]
    with pytest.raises(InvalidCertificateError):
        verify(design, problem, Polynomial([0.0, 0.0, 0.0]))


def test_verify_rejects_certificate_above_model_degree():
    # T_3 certifies a variance of 4 for this degree-1 design, but the optimum
    # is 1: a certificate outside the model's span proves nothing
    problem = DesignProblem(1, 1)
    design = Design([0.5], [1.0])
    with pytest.raises(InvalidCertificateError):
        verify(design, problem, Polynomial([0.0, 0.0, 1.0]))
    # trailing zero padding stays allowed
    optimum = solve(problem).designs[0]
    assert verify(optimum, problem, Polynomial([1.0, 0.0, 0.0])).verdict


@pytest.mark.filterwarnings("error")
def test_verify_rejects_overflowing_certificate():
    # finite coefficients whose value at 1 (1.5e308 + 1e308) overflows;
    # the error names it, with no numpy RuntimeWarning on the way
    problem = DesignProblem(3, 3)
    design = solve(problem).designs[0]
    with pytest.raises(InvalidCertificateError, match="overflow"):
        verify(design, problem, Polynomial([1.5e308, 0.0, 1e308]))


@pytest.mark.filterwarnings("error")
def test_verify_certificate_near_the_double_range():
    # 1e308 (4 x - 4 x**3) peaks at 1.54e308, inside the double range: a
    # report with a False verdict, not "certificate values overflow"
    problem = DesignProblem(3, 3)
    design = solve(problem).designs[0]
    report = verify(design, problem, Polynomial([1e308, 0.0, -1e308]))
    assert report.condition1_max == pytest.approx(8 / 3**1.5 * 1e308, rel=1e-15)  # at x = 3**-0.5
    assert not report.condition1_ok
    assert not report.verdict


@pytest.mark.parametrize("n, p, case", [(10, 4, "A"), (12, 5, "B"), (11, 3, "C")])
def test_condition1_max_is_the_maximum_over_grid_and_support(n, p, case):
    problem = DesignProblem(n, p)
    result = solve(problem)
    assert result.case_tag == case
    assert len(result.designs) == (2 if case == "C" else 1)
    peaks = result.certificate.peaks()[0]
    for design in result.designs:
        report = verify(design, problem, result.certificate)
        union = np.union1d(peaks, design.support)
        expected = float(np.abs(result.certificate(union)).max())
        assert report.condition1_max.hex() == expected.hex()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_rejects_invalid_tolerance(tol):
    problem = DesignProblem(3, 3)
    result = solve(problem)
    with pytest.raises(ValueError):
        verify(result.designs[0], problem, result.certificate, condition_tol=tol)


def test_verify_inadmissible_design():
    # a single-point design cannot estimate the linear coefficient alone
    problem = DesignProblem(2, 1)
    design = Design([1.0], [1.0])
    report = verify(design, problem, certificate_for(problem))
    assert report.variance_matrix == math.inf
    assert not report.verdict


def test_verify_solved_designs_small_sweep():
    for n in range(1, 7):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            result = solve(problem)
            for design in result.designs:
                report = verify(design, problem, result.certificate)
                assert report.verdict, (n, p)
                assert report.variance_formula == pytest.approx(
                    report.variance_matrix, rel=1e-8
                )


def moved_support_case(n, p):
    """A design that is not optimal, whose certificate peaks between grid points.

    Design 1 of ``solve`` with support point 28 moved by +6e-5, weights
    |a_i| / sum |a_i| from the intercept-free Lagrange coefficients of x**p
    on the moved support, and as certificate the interpolant of sign(a_i)
    there. The certificate is +-1 on the support and meets condition (3),
    but exceeds 1 by 1.3e-4 near x = 0.99, which a grid of 10001 points
    misses.
    """
    problem = DesignProblem(n, p)
    x = solve(problem).designs[0].support.copy()
    x[28] += 6e-5
    a = _lagrange_columns(x[None], p)[0]
    certificate = Polynomial(np.linalg.solve(intercept_free_vander(x, n), np.sign(a)))
    return problem, Design(x, np.abs(a) / np.abs(a).sum()), certificate


@pytest.mark.parametrize("n, p", [(30, 29), (30, 15), (30, 1)])
def test_verify_rejects_peak_between_grid_points(n, p):
    problem, design, certificate = moved_support_case(n, p)
    np.testing.assert_allclose(np.abs(certificate(design.support)), 1.0, atol=1e-12)
    report = verify(design, problem, certificate)
    assert report.condition3_residual <= 1e-9
    assert not report.condition1_ok
    assert report.condition1_max - 1.0 >= 1e-4
    assert not report.verdict
    assert phi_c(design, problem.unit_vector(), n) > solve(problem).variance
