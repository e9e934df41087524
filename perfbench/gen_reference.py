"""Generate ``reference.json``: 50-digit optimal variances for 1 <= p <= n <= 30.

Everything is derived from the closed forms of the paper in ``mpmath`` and
nothing is taken from the solver:

* supports are the cosine (Chebyshev extrema) and radical (even
  equioscillating polynomial) formulas, each point tagged with the exact
  certificate value +-1 that the formula implies;
* a_{i,p}, the x**p coefficient of the i-th intercept-free Lagrange basis
  polynomial, comes from synthetic division of the node polynomial;
* in the odd/odd case the two dropped candidates are the ones for which
  sign(a_{i,p}) * P(x_i) is constant over the remaining support (the sign
  criterion), found by scanning every candidate;
* the variance is h**2 with h = sum_i |a_{i,p}|.

The degree-3 and degree-4 designs (supports and weights) are stored too, as
the benchmark's reference tables. The file is generated once, not per run:

    python3 perfbench/gen_reference.py      # about 20 s
"""

from __future__ import annotations

import json
import os
import sys

import mpmath
from mpmath import mp, mpf

WORK_DPS = 80
STORE_DIGITS = 50
MAX_DEGREE = 30
TABLE_DEGREES = (3, 4)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "reference.json")


def chebyshev_extrema(deg: int) -> list[tuple[mpf, int]]:
    """All deg + 1 extrema cos(j pi / deg) of T_deg, ascending, with T_deg = (-1)**j."""
    return [(mpmath.cos(j * mp.pi / deg), (-1) ** j) for j in range(deg, -1, -1)]


def even_extrema(k: int) -> list[tuple[mpf, int]]:
    """The 2k extrema of T_k(x**2 (1 + c) - c), c = cos(pi / 2k), ascending.

    The i-th point from -1 inwards maps to y = cos((i - 1) pi / k), where
    T_k(y) = (-1)**(i - 1); the positive half mirrors the negative one.
    """
    c = mpmath.cos(mp.pi / (2 * k))
    neg = [(-mpmath.sqrt((mpmath.cos((i - 1) * mp.pi / k) + c) / (1 + c)), (-1) ** (i - 1))
           for i in range(1, k + 1)]
    return neg + [(-x, v) for x, v in reversed(neg)]


def node_polynomial(nodes) -> list[mpf]:
    """Coefficients (ascending) of prod_j (x - t_j)."""
    coeffs = [mpf(1)]
    for t in nodes:
        nxt = [mpf(0)] * (len(coeffs) + 1)
        for r, c in enumerate(coeffs):
            nxt[r + 1] += c
            nxt[r] -= t * c
        coeffs = nxt
    return coeffs


def divide_out(coeffs, root) -> list[mpf]:
    """Quotient of the polynomial by (x - root); the remainder is dropped."""
    deg = len(coeffs) - 1
    quotient = [mpf(0)] * deg
    acc = mpf(0)
    for r in range(deg, 0, -1):
        acc = coeffs[r] + acc * root
        quotient[r - 1] = acc
    return quotient


def lagrange_coefficients(nodes, p: int) -> list[mpf]:
    """a_{i,p} for every node: [x**(p-1)] Q_i / (t_i * Q_i(t_i)), Q_i = N / (x - t_i)."""
    full = node_polynomial(nodes)
    out = []
    for i, ti in enumerate(nodes):
        q = divide_out(full, ti)
        denom = ti
        for j, tj in enumerate(nodes):
            if j != i:
                denom *= ti - tj
        out.append(q[p - 1] / denom)
    return out


def sign_consistent(a, values) -> bool:
    scale = max(abs(x) for x in a)
    if any(abs(x) <= mpf(10) ** (-40) * scale for x in a):
        return False
    s = [mpmath.sign(x) * v for x, v in zip(a, values)]
    return all(x == s[0] for x in s)


def optimal_designs(n: int, p: int) -> tuple[mpf, list[tuple[list[mpf], list[mpf]]]]:
    """(h, [(support, weights), ...]) of the optimal design(s) for (n, p)."""
    k = n // 2
    if p % 2 == 0:
        candidates = [even_extrema(k)]
    elif n % 2 == 0:
        candidates = [chebyshev_extrema(2 * k - 1)]
    else:
        family = chebyshev_extrema(2 * k + 1)
        candidates = [family[:d] + family[d + 1:] for d in range(len(family))]

    found = []
    for cand in candidates:
        nodes = [x for x, _ in cand]
        a = lagrange_coefficients(nodes, p)
        if sign_consistent(a, [v for _, v in cand]):
            h = sum(abs(x) for x in a)
            found.append((h, nodes, [abs(x) / h for x in a]))
    expected = 1 if len(candidates) == 1 else 2
    if len(found) != expected:
        raise RuntimeError(f"({n}, {p}): {len(found)} sign-consistent supports, expected {expected}")
    h = found[0][0]
    for other, _, _ in found[1:]:
        if abs(other - h) > mpf(10) ** (-60) * h:
            raise RuntimeError(f"({n}, {p}): mirror designs disagree on h")
    return h, [(nodes, weights) for _, nodes, weights in found]


def text(x) -> str:
    return mpmath.nstr(x, STORE_DIGITS)


def main() -> int:
    mp.dps = WORK_DPS
    variance = {}
    tables = {}
    for n in range(1, MAX_DEGREE + 1):
        for p in range(1, n + 1):
            h, designs = optimal_designs(n, p)
            variance[f"{n}/{p}"] = text(h * h)
            if n in TABLE_DEGREES:
                tables[f"{n}/{p}"] = [
                    {"support": [text(x) for x in support], "weights": [text(w) for w in weights]}
                    for support, weights in designs
                ]
    payload = {
        "digits": STORE_DIGITS,
        "working_dps": WORK_DPS,
        "variance": variance,
        "designs": tables,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(variance)} variances and {len(tables)} tables to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
