import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly

import polydesign.design
import polydesign.elfving
import polydesign.solver
from polydesign.cli import REFERENCE_DESIGNS
from polydesign.polynomial import intercept_free_vander, power_coefficients
from polydesign.solver import _lagrange_columns, _passing

from polydesign import (
    Design,
    DesignProblem,
    InvalidProblemError,
    NumericalDegeneracyError,
    certificate_for,
    classify,
    coefficient,
    elfving_lp,
    phi_c,
    s_points,
    solve,
    verify,
)

from case_c_scan import mismatches, passing_drops, solver_pair
from half_range import symmetric_system_check

SQRT2 = math.sqrt(2.0)
RADICAL = math.sqrt(SQRT2 - 1.0)


def test_classify_cases():
    assert classify(DesignProblem(3, 2)) == ("A", 1)
    assert classify(DesignProblem(4, 3)) == ("B", 2)
    assert classify(DesignProblem(3, 3)) == ("C", 1)
    assert classify(DesignProblem(3, 1)) == ("C", 1)
    assert classify(DesignProblem(1, 1)) == ("C", 0)
    assert classify(DesignProblem(10, 4)) == ("A", 5)


def test_classify_rejects_bad_problem():
    with pytest.raises(InvalidProblemError):
        DesignProblem(3, 5)


def test_solve_supports_cubic():
    first, second = solve(DesignProblem(3, 1)).designs
    np.testing.assert_allclose(first.support, [-1.0, -0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(second.support, [-0.5, 0.5, 1.0], atol=1e-15)
    first, second = solve(DesignProblem(3, 3)).designs
    np.testing.assert_allclose(first.support, [-1.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(second.support, [-1.0, -0.5, 1.0], atol=1e-15)


def test_solve_support_quartic_even_coef():
    (design,) = solve(DesignProblem(4, 2)).designs
    np.testing.assert_allclose(design.support, [-1.0, -RADICAL, RADICAL, 1.0], atol=1e-15)


def test_elfving_lp_weights_on_a_given_support():
    # the closed-form weights |a_{i,p}| / sum_j |a_{j,p}| and variance h**2
    # on a given support; outside solve they are read from the LP oracle
    # with that support as its grid
    quartic = [SQRT2 / (8 * SQRT2 + 8), (3 * SQRT2 + 4) / (8 * SQRT2 + 8),
               (3 * SQRT2 + 4) / (8 * SQRT2 + 8), SQRT2 / (8 * SQRT2 + 8)]
    goldens = [
        ([-1.0, 0.5, 1.0], 3, [1 / 12, 2 / 3, 1 / 4], 4.0),
        ([-1.0, -RADICAL, RADICAL, 1.0], 2, quartic, 2 * (SQRT2 + 1)),
        ([-1.0, 1.0], 2, [0.5, 0.5], 1.0),
    ]
    for support, p, weights, h in goldens:
        result = elfving_lp(DesignProblem(len(support), p), support)
        np.testing.assert_array_equal(result.design.support, support)
        np.testing.assert_allclose(result.design.weights, weights, atol=1e-12)
        assert result.variance == pytest.approx(h * h, rel=1e-12)
    signs = np.sign(_lagrange_columns(intercept_free_vander(np.array([[-1.0, 0.5, 1.0]]), 3),
                                      power_coefficients(3, 3))[0])
    np.testing.assert_array_equal(signs, [-1.0, -1.0, 1.0])


def test_power_coefficients_match_chebyshev_recurrence_bit_for_bit():
    # the closed form for the coefficient of x**p in T_j against numpy's
    # cheb2poly, whose recurrence stays in exact integers up to T_30
    for m in range(1, 31):
        coeffs = [cheb2poly(np.eye(j + 1)[j]) for j in range(1, m + 1)]
        for p in range(1, m + 1):
            expected = np.array([c[p] if p < c.size else 0.0 for c in coeffs])
            got = power_coefficients(m, p)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2"])
def test_power_coefficients_reject_non_integer_index(p):
    # 2.5 used to be truncated to 2, and True read as 1
    with pytest.raises(ValueError, match="coefficient index must be an integer"):
        power_coefficients(3, p)


def test_power_coefficients_take_numpy_integers_exactly():
    # 2**63 and beyond: numpy int64 arithmetic used to wrap to zeros here
    np.testing.assert_array_equal(power_coefficients(70, np.int64(64)), power_coefficients(70, 64))
    assert power_coefficients(70, 64)[63] == 2.0**63


@pytest.mark.parametrize("key", REFERENCE_DESIGNS)
def test_solve_reference_designs(key):
    degree, coef, expected = key
    result = solve(DesignProblem(degree, coef))
    assert len(result.designs) == len(expected)
    for design, (support, weights) in zip(result.designs, expected):
        np.testing.assert_allclose(design.support, support, atol=1e-12)
        np.testing.assert_allclose(design.weights, weights, atol=1e-12)


def test_solve_h_values():
    assert solve(DesignProblem(3, 1)).h == pytest.approx(3.0, abs=1e-13)
    assert solve(DesignProblem(3, 3)).h == pytest.approx(4.0, abs=1e-13)
    assert solve(DesignProblem(4, 2)).h == pytest.approx(2 * (SQRT2 + 1), abs=1e-13)
    assert solve(DesignProblem(4, 4)).h == pytest.approx(3 + 2 * SQRT2, abs=1e-13)


def test_solve_degenerate_degree_one():
    result = solve(DesignProblem(1, 1))
    assert result.case_tag == "C"
    assert len(result.designs) == 2
    np.testing.assert_array_equal(result.designs[0].support, [-1.0])
    np.testing.assert_array_equal(result.designs[1].support, [1.0])
    np.testing.assert_array_equal(result.designs[0].weights, [1.0])
    assert result.h == 1.0 and result.variance == 1.0


def test_solve_certificate_is_cubic_chebyshev_for_3_3():
    result = solve(DesignProblem(3, 3))
    np.testing.assert_array_equal(result.certificate.coeffs, [0, 0, 1])  # T_3 = g_3
    assert [coefficient(result.certificate, q) for q in range(4)] == [0, -3, 0, 4]


def test_solve_self_check_is_condition_3(monkeypatch):
    # the self-check runs the verifier's condition (3) core and rejects a
    # residual above its tolerance, or an h other than the returned one
    original = polydesign.solver._certificate_identity
    monkeypatch.setattr(polydesign.solver, "_certificate_identity",
                        lambda *args: (original(*args)[0], 2e-9))
    with pytest.raises(NumericalDegeneracyError, match="certificate identity"):
        solve(DesignProblem(5, 3))
    monkeypatch.setattr(polydesign.solver, "_certificate_identity",
                        lambda *args: (original(*args)[0] * (1 + 2e-9), 0.0))
    with pytest.raises(NumericalDegeneracyError, match="certificate identity"):
        solve(DesignProblem(6, 2))


def test_certificate_identity_across_problems():
    # h * sum_i f(x_i) w_i P(x_i) reproduces the unit vector
    for n in range(1, 11):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            result = solve(problem)
            for design in result.designs:
                powers = np.vstack([design.support**q for q in range(1, n + 1)])
                achieved = result.h * (
                    powers @ (design.weights * result.certificate(design.support))
                )
                np.testing.assert_allclose(achieved, problem.unit_vector(), atol=1e-9)


def test_variance_is_h_squared_and_designs_agree():
    for n in range(1, 11):
        for p in range(1, n + 1):
            result = solve(DesignProblem(n, p))
            assert result.variance == result.h * result.h
            assert result.h > 0


def test_weight_symmetry_exact_cases_a_b():
    for n in range(2, 13):
        for p in range(1, n + 1):
            result = solve(DesignProblem(n, p))
            if result.case_tag == "C":
                continue
            w = result.designs[0].weights
            assert np.all(w == w[::-1])


def test_mirror_symmetry_case_c():
    # design 2 is design 1 under x -> -x, bit for bit
    for n in range(1, 102, 2):
        for p in range(1, n + 1, 2):
            first, second = solve(DesignProblem(n, p)).designs
            assert np.array_equal(second.support, -first.support[::-1]), (n, p)
            assert np.array_equal(second.weights, first.weights[::-1]), (n, p)


def test_case_c_designs_share_no_array():
    first, second = solve(DesignProblem(9, 3)).designs
    expected = second.weights.copy()
    first.weights[:] = 2.0
    first.support[:] = 0.5
    np.testing.assert_array_equal(second.weights, expected)
    assert second.support[-1] == 1.0


def test_returned_designs_are_admissible():
    for n in range(1, 11):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            for design in solve(problem).designs:
                assert math.isfinite(phi_c(design, problem.unit_vector(), n))


def test_case_c_sign_products_share_one_sign():
    # each returned support, solved on its own, passes the sign test that
    # solve applies to design 1 only
    for n in range(1, 58, 2):
        for p in range(1, n + 1, 2):
            result = solve(DesignProblem(n, p))
            for design in result.designs:
                g = intercept_free_vander(design.support[None], design.size)
                a = _lagrange_columns(g, power_coefficients(design.size, p))
                values = np.sign(result.certificate(design.support))
                assert _passing(a, values).tolist() == [0], (n, p)


def test_unusual_support_selection_degree9_coef3():
    # at (9, 3) the two optimal supports drop an endpoint of the candidate
    # set, not a central point; the optimum drops to 120**2
    result = solve(DesignProblem(9, 3))
    assert result.h == pytest.approx(120.0, rel=1e-12)
    first, second = result.designs
    assert first.support[0] == -1.0 and first.support[-1] < 1.0
    assert second.support[0] > -1.0 and second.support[-1] == 1.0


def test_symmetric_system_check_all_a_b_problems():
    for n in range(2, 11):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            tag, _ = classify(problem)
            if tag == "C":
                continue
            result = solve(problem)
            assert symmetric_system_check(problem, result.designs[0])


def test_symmetric_system_check_rejects_case_c():
    with pytest.raises(InvalidProblemError):
        symmetric_system_check(DesignProblem(3, 3), solve(DesignProblem(3, 3)).designs[0])


def test_symmetric_system_check_detects_tampered_weights():
    problem = DesignProblem(4, 2)
    good = solve(problem).designs[0]
    w = good.weights.copy()
    w[0] += 0.02
    w[1] -= 0.02
    w[3] += 0.02
    w[2] -= 0.02
    tampered = Design(good.support, w)
    assert not symmetric_system_check(problem, tampered)


def _golden():
    # float.hex of h and of every support point and weight for all 465
    # problems with n <= 30, as produced by the batched solve in the
    # intercept-free Chebyshev basis
    golden = json.loads((Path(__file__).parent / "data" / "solve_golden.json").read_text())
    assert len(golden) == 465
    return golden


def _bits(result):
    return {
        "n": result.problem.n,
        "p": result.problem.p,
        "h": float(result.h).hex(),
        "designs": [
            {"support": [float(x).hex() for x in d.support],
             "weights": [float(w).hex() for w in d.weights]}
            for d in result.designs
        ],
    }


def test_solve_matches_golden_bits():
    # every bit must reproduce
    for entry in _golden():
        assert _bits(solve(DesignProblem(entry["n"], entry["p"]))) == entry


def test_numpy_integer_problems_solve_bit_for_bit_from_the_int_cache_entry():
    # np.int64(n) == n and hashes alike, so the geometry cache serves both
    def full_bits(result):
        return (_bits(result), float(result.variance).hex(), result.case_tag, result.case_c_pair,
                [float(c).hex() for c in result.certificate.coeffs])

    for n in range(1, 31):
        for p in range(1, n + 1):
            expected = full_bits(solve(DesignProblem(n, p)))
            before = polydesign.solver._geometry.cache_info()
            got = full_bits(solve(DesignProblem(np.int64(n), np.int64(p))))
            after = polydesign.solver._geometry.cache_info()
            assert got == expected, (n, p)
            assert (after.currsize, after.misses) == (before.currsize, before.misses), (n, p)


def test_cold_geometry_cache_reproduces_golden_bits_in_either_order():
    # a result must not depend on which problems filled the cache before it
    golden = _golden()
    polydesign.solver._geometry.cache_clear()
    for order in (golden[::-1], golden):
        for entry in order:
            assert _bits(solve(DesignProblem(entry["n"], entry["p"]))) == entry


@pytest.mark.parametrize("n, p, q", [(9, 3, 5), (9, 2, 4), (10, 3, 9), (10, 2, 10), (1, 1, 1)])
def test_writing_into_a_result_leaves_the_next_solve_unchanged(n, p, q):
    # p and q share (n, parity of p), so both read one cache entry
    expected = _bits(solve(DesignProblem(n, q)))
    for design in solve(DesignProblem(n, p)).designs:
        design.support[:] = 0.5
        design.weights[:] = 2.0
    assert _bits(solve(DesignProblem(n, q))) == expected


@pytest.mark.parametrize("n, p", [(9, 3), (9, 2), (10, 3), (10, 2), (1, 1)])
def test_cached_geometry_is_read_only(n, p):
    problem = DesignProblem(n, p)
    case = polydesign.solver._geometry(n, classify(problem)[0])
    for array in (case.points, case.values, case.kept, case.g, certificate_for(problem).coeffs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_certificate_signs_match_the_closed_form_alternation():
    # the signs read off each certificate at its extrema against the
    # closed-form patterns: on each half from 1 at x = +-1 for E_2k, and
    # (-1)**(i + 1) at the i-th extremum of T_s; __wrapped__ builds each
    # geometry without touching the cache the other tests inspect
    for n in range(1, 102):
        k = n // 2
        half = (-1.0) ** np.arange(k)
        expected = {"A": np.concatenate([half, half[::-1]])} if k else {}
        s = n if n % 2 else n - 1
        expected["C" if n % 2 else "B"] = (-1.0) ** np.arange(1, s + 2)
        for tag, signs in expected.items():
            values = polydesign.solver._geometry.__wrapped__(n, tag).values
            assert np.array_equal(values, signs), (n, tag)


def test_geometry_cache_stays_bounded():
    for n in range(1, 101):
        for p in {1, 2} & set(range(1, n + 1)):
            solve(DesignProblem(n, p))
    info = polydesign.solver._geometry.cache_info()
    assert info.currsize <= info.maxsize == polydesign.solver._GEOMETRY_CACHE_SIZE == 64


def _count_basis_calls(monkeypatch) -> Counter:
    # counts the basis tables built where solver, design and elfving look them up
    calls = Counter()
    for module in (polydesign.solver, polydesign.design, polydesign.elfving):
        for name in ("intercept_free_vander", "power_coefficients"):
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n, p", [(11, 4), (10, 4), (10, 3), (11, 3)])  # A odd n, A even n, B, C
def test_solve_and_verify_build_each_basis_table_once(monkeypatch, n, p):
    # on a warm cache solve builds no basis and computes d_p once, its
    # self-check included; verify builds g and d_p once per design
    problem = DesignProblem(n, p)
    solve(problem)
    calls = _count_basis_calls(monkeypatch)
    result = solve(problem)
    assert dict(calls) == {"power_coefficients": 1}
    for design in result.designs:
        calls.clear()
        assert verify(design, problem, result.certificate).verdict
        assert dict(calls) == {"intercept_free_vander": 1, "power_coefficients": 1}


def test_self_check_reads_a_fresh_basis_bit_for_bit():
    # the cached rows the self-check reads, the support's extrema in the
    # case's basis table, equal the basis built afresh at the support
    for n in range(1, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            case = polydesign.solver._geometry(n, classify(problem)[0])
            for design in solve(problem).designs:
                index = np.searchsorted(case.points, design.support)
                assert case.points[index].tobytes() == design.support.tobytes()
                fresh = intercept_free_vander(design.support, n)
                assert case.g[index].tobytes() == fresh.tobytes(), (n, p)


def test_solve_raises_past_the_double_range():
    # h = 1.9e154 at (415, 247), so h**2 is no double; the variance used
    # to come back as inf with no error
    with pytest.raises(NumericalDegeneracyError, match="overflows the double range"):
        solve(DesignProblem(415, 247))


def test_power_coefficients_overflow_first_at_degree_810():
    # the middle entries of column 560 leave the double range at T_810
    assert np.isfinite(power_coefficients(809, 560)).all()
    with pytest.raises(NumericalDegeneracyError, match="overflow"):
        power_coefficients(810, 560)


def test_overflowing_target_leaves_the_geometry_cache_untouched():
    # d_p overflows the double range at (1025, 1025); solve raises before
    # it computes (and caches) the degree-1025 geometry, about 8.4 MB
    polydesign.solver._geometry.cache_clear()
    with pytest.raises(NumericalDegeneracyError, match="overflow"):
        solve(DesignProblem(1025, 1025))
    assert polydesign.solver._geometry.cache_info().currsize == 0


def _p_star(n):
    # the largest p whose case-C designs drop the endpoint pair (ROADMAP's
    # table, measured for every odd n <= 101)
    for bound, p_star in ((7, 1), (19, 3), (35, 5), (57, 7), (85, 9), (101, 11)):
        if n <= bound:
            return p_star
    raise ValueError(n)


def test_case_c_pair_follows_the_threshold_table():
    for n in range(1, 62, 2):
        for p in range(1, n + 1, 2):
            result = solve(DesignProblem(n, p))
            pair = "endpoint" if p <= _p_star(n) else "central"
            assert result.case_c_pair == pair, (n, p)
            k = n // 2
            dropped = [np.flatnonzero(~np.isin(s_points(k + 1), d.support)) for d in result.designs]
            expected = [[2 * k + 1], [0]] if pair == "endpoint" else [[k], [k + 1]]
            assert [list(d) for d in dropped] == expected, (n, p)


def test_case_c_drops_other_than_solves_pair_never_pass():
    # all n + 1 drops of T_n's extrema through solve's own sign test, which
    # tries two: exactly the mirror pair solve names passes. A CI step runs
    # the same scan for every odd n <= 101
    assert mismatches(range(1, 62, 2)) == []
    assert passing_drops(1, 1) == solver_pair(1, 1) == {0, 1}  # the two pairs coincide


def test_case_c_pair_is_none_in_cases_a_and_b():
    for n, p in ((2, 1), (2, 2), (3, 2), (10, 5), (30, 30)):
        assert solve(DesignProblem(n, p)).case_c_pair is None


@pytest.mark.parametrize("n, p", [(29, 3), (29, 15), (51, 3)])
def test_case_c_drop_scan_matches_a_120_digit_reference(n, p):
    # the reference scans all n + 1 drops of T_n's extrema at 120 digits,
    # while solve tries only two: exactly one mirror pair of drops passes,
    # the pair solve names, and its h meets solve's (<= 4.9e-16 measured)
    pytest.importorskip("mpmath")
    from high_precision import case_c_drops

    passed = case_c_drops(n, p)
    drop = min(passed)
    assert sorted(passed) == [drop, n - drop]
    k = n // 2
    pairs = {0: "endpoint", k: "central"}
    result = solve(DesignProblem(n, p))
    assert pairs.get(drop) == result.case_c_pair
    for h in passed.values():
        assert result.h == pytest.approx(float(h), rel=1e-14)


@pytest.mark.parametrize("key, calls", [((3, 2), 1), ((4, 3), 1), ((5, 3), 1), ((9, 3), 1)])
def test_solve_computes_each_weight_vector_once(monkeypatch, key, calls):
    # every candidate support of a problem is solved in one batch: the one
    # support of cases A and B, the two one-point drops of case C (one per
    # pair; the other design is the mirror of the chosen one)
    seen = []
    original = polydesign.solver._lagrange_columns

    def counting(g, d):
        seen.append(len(g))
        return original(g, d)

    monkeypatch.setattr(polydesign.solver, "_lagrange_columns", counting)
    problem = DesignProblem(*key)
    solve(problem)
    assert len(seen) == calls
    assert seen[0] == (2 if classify(problem)[0] == "C" else 1)
