"""Test-only 120-digit reference for the scaling constant h of cases A and B.

The support comes from the paper's closed forms evaluated in mpmath: the
s + 1 extrema cos(j pi / s) of T_s, s = n - 1, for odd p with even n (case
B), and the 2k extrema of E_2k, k = n // 2, for even p (case A). With
a_{i,p} the coefficient of x**p in the i-th intercept-free Lagrange basis
polynomial x Q_i(x) / (t_i Q_i(t_i)), Q_i the node polynomial divided by
(x - t_i), h = sum_i |a_{i,p}| and the optimal variance is h**2. Each Q_i
comes from synthetic division of the node polynomial.

Case C (odd n and p), whose support drops one of the n + 1 extrema of T_n,
is covered by a scan of every drop with the solver's sign test:
:func:`case_c_drops` returns the drops that pass, each with its h, so it
checks the solver's claim that exactly one mirror pair of drops is optimal
as well as the h of that pair.

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


def _coefficients(nodes: list, p: int) -> list:
    """The signed a_{i,p} of ``nodes`` at the working precision."""
    full = [mpmath.mpf(1)]  # ascending coefficients of prod_j (x - t_j)
    for t in nodes:
        full = [a - t * b for a, b in zip([0, *full], [*full, 0])]
    coefficients = []
    for i, ti in enumerate(nodes):
        acc = mpmath.mpf(0)  # synthetic division by (x - t_i), down to x**(p - 1)
        for r in range(len(full) - 1, p - 1, -1):
            acc = full[r] + acc * ti
        denom = ti * mpmath.fprod(ti - tj for j, tj in enumerate(nodes) if j != i)
        coefficients.append(acc / denom)
    return coefficients


def reference_h(n: int, p: int):
    """h = sum_i |a_{i,p}| at ``DIGITS`` digits, as an mpf."""
    with mpmath.workdps(DIGITS):
        return +sum((abs(a) for a in _coefficients(_support(n, p), p)), mpmath.mpf(0))


def case_c_drops(n: int, p: int) -> dict:
    """Every drop that passes in case C (odd n and p), with its h as an mpf.

    The candidates are the n + 1 extrema t_i = cos((n - i) pi / n) of T_n,
    ascending, where T_n takes the value (-1)**(i + 1). Drop i passes when,
    on the other n extrema, every a_{j,p} is nonzero and
    sign(a_{j,p}) * T_n(t_j) is the same for every j; its h is then
    sum_j |a_{j,p}|. All n + 1 drops are scanned at ``DIGITS`` digits.
    """
    if n % 2 == 0 or p % 2 == 0:
        raise ValueError(f"({n}, {p}) is not case C")
    passed = {}
    with mpmath.workdps(DIGITS):
        extrema = [mpmath.cos(j * mpmath.pi / n) for j in range(n, -1, -1)]
        for drop in range(n + 1):
            kept = [i for i in range(n + 1) if i != drop]
            a = _coefficients([extrema[i] for i in kept], p)
            orientation = {mpmath.sign(a_j) * (-1) ** (i + 1) for a_j, i in zip(a, kept)}
            if orientation in ({1}, {-1}):
                passed[drop] = +sum((abs(a_j) for a_j in a), mpmath.mpf(0))
    return passed
