"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute (pytest captures stdout otherwise).
"""

import math
import random
import time

import numpy as np
import pytest

from polydesign import (
    Design,
    DesignProblem,
    classify,
    oracle_variance,
    phi_c,
    solve,
    verify,
)
from polydesign.cli import REFERENCE_DESIGNS
from polydesign.polynomial import intercept_free_vander

from half_range import symmetric_system_check

SQRT2 = math.sqrt(2.0)

#: the degree-3 and degree-4 reference tables, keyed by (degree, coef)
REFERENCE = {(n, p): tables for n, p, tables in REFERENCE_DESIGNS}


def _check(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def _max_deviation(designs, tables) -> float:
    worst = 0.0
    assert len(designs) == len(tables)
    for design, (support, weights) in zip(designs, tables):
        worst = max(worst, np.abs(design.support - np.asarray(support)).max())
        worst = max(worst, np.abs(design.weights - np.asarray(weights)).max())
    return worst


def test_criterion_1_cubic_reference_designs():
    start = time.perf_counter()
    worst = max(
        _max_deviation(solve(DesignProblem(3, p)).designs, REFERENCE[3, p]) for p in (1, 2, 3)
    )
    elapsed = time.perf_counter() - start
    _check(1, "degree-3 designs match reference tables to 1e-12 in < 1 s",
           worst <= 1e-12 and elapsed < 1.0,
           f"max dev {worst:.2e}, {elapsed:.3f} s")


def test_criterion_2_quartic_reference_designs():
    worst = max(
        _max_deviation(solve(DesignProblem(4, p)).designs, REFERENCE[4, p]) for p in (1, 2, 3, 4)
    )
    _check(2, "degree-4 designs match reference tables to 1e-12",
           worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_3_certification_sweep():
    failures = []
    worst_rel = 0.0
    for n in range(1, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            result = solve(problem)
            for design in result.designs:
                report = verify(design, problem, result.certificate)
                if not report.verdict:
                    failures.append((n, p))
                value = phi_c(design, problem.unit_vector(), n)
                rel = abs(value - result.variance) / result.variance
                worst_rel = max(worst_rel, rel)
                if rel > 1e-8:
                    failures.append((n, p, "variance"))
    _check(3, "all designs for 1 <= p <= n <= 30 verify and match phi to 1e-8",
           not failures, f"failures {failures}, worst rel {worst_rel:.2e}")


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    failures = []
    worst_inc, worst_rel = 0.0, 0.0
    for n in range(1, 9):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            variance = solve(problem).variance
            included = oracle_variance(problem, grid_size=10001, include_solver_support=True)
            rel = abs(included - variance) / variance
            worst_inc = max(worst_inc, rel)
            if rel > 1e-7:
                failures.append((n, p, "include", rel))
            free = oracle_variance(problem, grid_size=10001, include_solver_support=False)
            if free < variance - 1e-9:
                failures.append((n, p, "lower-bound", free - variance))
            rel_free = abs(free - variance) / variance
            worst_rel = max(worst_rel, rel_free)
            if rel_free > 1e-3:
                failures.append((n, p, "gap", rel_free))
    elapsed = time.perf_counter() - start
    _check(4, "LP oracle matches solver for 1 <= p <= n <= 8 within budget",
           not failures and elapsed < 60.0,
           f"include rel {worst_inc:.2e}, free rel {worst_rel:.2e}, {elapsed:.1f} s")


def test_criterion_5_specific_variances():
    expected = {
        (3, 3): 16.0,
        (4, 2): 12 + 8 * SQRT2,
        (3, 2): 1.0,
        (1, 1): 1.0,
    }
    failures = []
    for (n, p), value in expected.items():
        problem = DesignProblem(n, p)
        result = solve(problem)
        if abs(result.variance - value) > 1e-10 * max(1.0, value):
            failures.append((n, p, "h-path", result.variance))
        for design in result.designs:
            via_matrix = phi_c(design, problem.unit_vector(), n)
            if abs(via_matrix - value) > 1e-8 * max(1.0, value):
                failures.append((n, p, "phi_c-path", via_matrix))
    _check(5, "variances 16, 12+8*sqrt(2), 1, 1 via both computation paths",
           not failures, f"failures {failures}")


def test_criterion_6_half_range_system_cross_check():
    failures = []
    for n in range(2, 11):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            tag, _ = classify(problem)
            if tag == "C":
                continue
            result = solve(problem)
            if not symmetric_system_check(problem, result.designs[0]):
                failures.append((n, p))
    _check(6, "half-range moment systems reproduce all case A/B weights (n <= 10)",
           not failures, f"failures {failures}")


def test_criterion_7_singular_information_matrix():
    failures = []
    for n, p in [(3, 2), (5, 2), (5, 4), (7, 6), (9, 8)]:
        problem = DesignProblem(n, p)
        result = solve(problem)
        for design in result.designs:
            # M = B^T B is singular exactly when B[i, j] = sqrt(w_i) g_j(x_i) has rank < n
            b = np.sqrt(design.weights)[:, None] * intercept_free_vander(design.support, n)
            rank = np.linalg.matrix_rank(b)
            if rank >= n:
                failures.append((n, p, "rank", rank))
            value = phi_c(design, problem.unit_vector(), n)
            if not math.isfinite(value):
                failures.append((n, p, "admissible"))
            elif abs(value - result.variance) > 1e-8 * result.variance:
                failures.append((n, p, "phi", value))
    _check(7, "odd-degree even-coefficient designs exercise the generalized inverse",
           not failures, f"failures {failures}")


def test_criterion_8_negative_controls():
    # every weight of every design for n <= 5, and one seeded weight and
    # sign per design for 6 <= n <= 30, moved by 1% and renormalized
    rng = random.Random(8)
    failures = []
    worst_increase = math.inf
    smallest_residual = math.inf
    for n in range(2, 31):
        for p in range(1, n + 1):
            problem = DesignProblem(n, p)
            result = solve(problem)
            for design in result.designs:
                if n <= 5:
                    moves = [(i, 1.01) for i in range(design.size)]
                else:
                    moves = [(rng.randrange(design.size), rng.choice((0.99, 1.01)))]
                for i, factor in moves:
                    weights = design.weights.copy()
                    weights[i] *= factor
                    weights /= weights.sum()
                    perturbed = Design(design.support, weights)
                    value = phi_c(perturbed, problem.unit_vector(), n)
                    increase = value - result.variance
                    worst_increase = min(worst_increase, increase)
                    if increase < 1e-10:
                        failures.append((n, p, i, increase))
                    report = verify(perturbed, problem, result.certificate)
                    smallest_residual = min(smallest_residual, report.condition3_residual)
                    if report.verdict:
                        failures.append((n, p, i, "verified"))
    _check(8, "1% weight perturbations strictly increase the variance and fail verify (n <= 30)",
           not failures,
           f"min increase {worst_increase:.2e}, smallest residual {smallest_residual:.2e}")
