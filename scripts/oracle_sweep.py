"""Cross-check the LP oracle against the closed forms for 1 <= n <= 30 and n = 100.

Runs ``elfving_lp`` for all 465 problems 1 <= p <= n <= 30 on all of [-1, 1]
(``elfving_lp(problem)``, the "interval" half: the interval holds every
optimal support) and on the uniform grid ``np.linspace(-1, 1, 10001)`` (the
"grid" half), the two names ``polydesign oracle`` prints, and for every p at
n = 100 on [-1, 1]. The gates: on [-1, 1], within 1e-9 relative of
``solve``; on the grid, no more than 1e-9 below ``solve`` and within 1e-3
relative, acceptance criterion 4's gate. Every one of the 1030 calls must
also end after one LP, as the exchange's start at the two point families
makes it, and ``oracle_variance``, which takes its grid from a cache, must
return ``elfving_lp``'s variance bit for bit on each of the 930 calls with
n <= 30. Prints the worst gaps and exits 1 on any miss (an oracle failure
counts as one). Tier-1 covers n <= 10 and every p of n in {16, 23, 30};
this sweep takes about 5 s on 2 cores, so it runs as its own CI step:

    PYTHONPATH=src python scripts/oracle_sweep.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from polydesign import DesignProblem, OracleFailureError, elfving_lp, oracle_variance, solve

GRID_SIZE = 10001
DEGREES = range(1, 31)
#: the degree whose every p runs on [-1, 1] alone
HIGH_DEGREE = 100
#: relative gap to ``solve`` allowed on [-1, 1] and on the uniform grid
RTOL = {"interval": 1e-9, "grid": 1e-3}
#: on the grid the optimum may not fall below ``solve`` by more
LOWER_BOUND_ATOL = 1e-9


def main() -> int:
    start = time.perf_counter()
    misses = []
    worst = {label: (0.0, None) for label in RTOL}
    lps = 0
    problems = [DesignProblem(n, p) for n in DEGREES for p in range(1, n + 1)]
    problems += [DesignProblem(HIGH_DEGREE, p) for p in range(1, HIGH_DEGREE + 1)]
    uniform = np.linspace(-1.0, 1.0, GRID_SIZE)
    for problem in problems:
        key = (problem.n, problem.p)
        result = solve(problem)
        for label in RTOL if problem.n in DEGREES else ["interval"]:
            grid = None if label == "interval" else uniform
            try:
                lp = elfving_lp(problem, grid)
            except OracleFailureError as exc:
                misses.append((key, label, str(exc)))
                continue
            lps += lp.iterations
            if lp.iterations != 1:
                misses.append((key, label, f"{lp.iterations} LPs"))
            if problem.n in DEGREES:
                cached = oracle_variance(problem, GRID_SIZE, include_solver_support=label == "interval")
                if cached != lp.variance:
                    misses.append((key, label, f"oracle_variance {cached!r} != elfving_lp {lp.variance!r}"))
            rel = abs(lp.variance - result.variance) / result.variance
            if rel >= worst[label][0]:
                worst[label] = (rel, key)
            if rel > RTOL[label]:
                misses.append((key, label, f"relative gap {rel:.3e}"))
            if label == "grid" and lp.variance < result.variance - LOWER_BOUND_ATOL:
                misses.append((key, label, f"{lp.variance - result.variance:.3e} below solve"))
    elapsed = time.perf_counter() - start
    for label, (rel, key) in worst.items():
        print(f"worst {label} relative gap: {rel:.3e} at (n, p) = {key}")
    for key, label, reason in misses:
        print(f"MISS {key} {label}: {reason}")
    print(f"{len(problems)} problems, {lps} LPs, {len(misses)} misses, {elapsed:.1f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
