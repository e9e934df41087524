"""Test-only 120-digit reference for the scaling constant h of cases A and B.

The support comes from the paper's closed forms evaluated in mpmath: the
s + 1 extrema cos(j pi / s) of T_s, s = n - 1, for odd p with even n (case
B), and the 2k extrema of E_2k, k = n // 2, for even p (case A). With
a_{i,p} the coefficient of x**p in the i-th intercept-free Lagrange basis
polynomial x Q_i(x) / (t_i Q_i(t_i)), Q_i the node polynomial divided by
(x - t_i), h = sum_i |a_{i,p}| and the optimal variance is h**2. Each Q_i
comes from synthetic division of the node polynomial. Case C, whose
support drops one extremum chosen by a sign scan, is not covered.

Imports mpmath, so callers import it behind ``pytest.importorskip``. It
imports nothing from the library, whose solver this reference checks.
"""

import mpmath

DIGITS = 120


def _support(n: int, p: int) -> list:
    k = n // 2
    if p % 2 == 0:  # the extrema of E_2k: y = cos((i - 1) pi / k) on each half
        c = mpmath.cos(mpmath.pi / (2 * k))
        neg = [-mpmath.sqrt((mpmath.cos(i * mpmath.pi / k) + c) / (1 + c)) for i in range(k)]
        return neg + [-x for x in reversed(neg)]
    if n % 2 == 0:  # the extrema of T_s, s = n - 1, ascending
        s = n - 1
        return [mpmath.cos(j * mpmath.pi / s) for j in range(s, -1, -1)]
    raise ValueError(f"case C ({n}, {p}) is not covered")


def reference_h(n: int, p: int):
    """h = sum_i |a_{i,p}| at ``DIGITS`` digits, as an mpf."""
    with mpmath.workdps(DIGITS):
        nodes = _support(n, p)
        full = [mpmath.mpf(1)]  # ascending coefficients of prod_j (x - t_j)
        for t in nodes:
            full = [a - t * b for a, b in zip([0, *full], [*full, 0])]
        h = mpmath.mpf(0)
        for i, ti in enumerate(nodes):
            acc = mpmath.mpf(0)  # synthetic division by (x - t_i), down to x**(p - 1)
            for r in range(len(full) - 1, p - 1, -1):
                acc = full[r] + acc * ti
            denom = ti * mpmath.fprod(ti - tj for j, tj in enumerate(nodes) if j != i)
            h += abs(acc / denom)
        return +h
