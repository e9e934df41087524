"""Solve and verify every problem with 31 <= n <= 100, beyond the CLI's cap.

Runs ``solve`` and ``verify`` on all 4585 problems 1 <= p <= n,
31 <= n <= 100 (5740 designs, two for each case-C problem). A design
misses when its verdict is False, or when its two variances,
``variance_formula`` (h^2) and ``variance_matrix`` (``phi_c``), differ by
more than 1e-11 relative to ``variance_matrix``, a thousandth of
``verify``'s own ``VARIANCE_RTOL``, so the gap is seen long before it
costs a verdict. Tier-1 covers n <= 30 and three problems up to n = 200;
this sweep takes about 12 s on 2 cores, so it runs as its own CI step. It
prints the worst gap and exits 1 on any miss:

    PYTHONPATH=src python scripts/degree_sweep.py
"""

from __future__ import annotations

import sys
import time

from polydesign import DesignProblem, solve, verify

DEGREES = range(31, 101)
#: relative gap allowed between the two variance computations
VARIANCE_GAP = 1e-11


def main() -> int:
    start = time.perf_counter()
    misses = []
    worst = (0.0, None)
    designs = 0
    problems = [DesignProblem(n, p) for n in DEGREES for p in range(1, n + 1)]
    for problem in problems:
        key = (problem.n, problem.p)
        result = solve(problem)
        for design in result.designs:
            designs += 1
            report = verify(design, problem, result.certificate)
            gap = abs(report.variance_formula - report.variance_matrix) / report.variance_matrix
            if gap >= worst[0]:
                worst = (gap, key)
            if not report.verdict:
                misses.append((key, "verdict False"))
            if gap > VARIANCE_GAP:
                misses.append((key, f"variance gap {gap:.3e}"))
    elapsed = time.perf_counter() - start
    print(f"worst variance gap: {worst[0]:.3e} at (n, p) = {worst[1]}")
    for key, reason in misses:
        print(f"MISS {key}: {reason}")
    print(f"{len(problems)} problems, {designs} designs, {len(misses)} misses, {elapsed:.1f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
