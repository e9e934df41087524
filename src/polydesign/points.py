"""Closed-form support-point families on [-1, 1].

Each family is the complete set of extremal points (points where the value
is +-1) of one equioscillating polynomial on the interval, returned as a
sorted array:

* :func:`s_points`: the 2k extrema of the Chebyshev polynomial of odd
  degree 2k - 1, the candidates for every odd coefficient index;
* :func:`t_points`: the 2k extrema of the even polynomial from
  :func:`polydesign.polynomial.e_polynomial`, the candidates for every even
  coefficient index.

One half of each family is computed from the closed-form cosine/radical
expressions and the other half is obtained by mirroring, so the symmetry
``points[i] == -points[m - 1 - i]`` holds bit-for-bit and the endpoints are
exactly -1 and +1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidOrderError, is_integer


def check_order(k) -> None:
    """Raise :class:`InvalidOrderError` unless k is an integer >= 1 (not a bool)."""
    if not is_integer(k) or k < 1:
        raise InvalidOrderError(f"order k must be an integer >= 1, got {k!r}")


def _mirrored(positive_half: np.ndarray) -> np.ndarray:
    return np.concatenate([-positive_half[::-1], positive_half])


def s_points(k: int) -> np.ndarray:
    """The 2k extrema of the Chebyshev polynomial of degree 2k - 1.

    Explicitly cos(j*pi/(2k-1)) for j = 2k-1, ..., 0; the positive half is
    j = k-1, ..., 0 and the negative half is its mirror image. k = 1 yields
    the two endpoint extrema of T_1 = x.
    """
    check_order(k)
    deg = 2 * k - 1
    return _mirrored(np.array([math.cos(j * math.pi / deg) for j in range(k - 1, -1, -1)]))


def t_points(k: int) -> np.ndarray:
    """The 2k extrema of the even equioscillating polynomial of degree 2k.

    The positive half is

        sqrt((cos((i-1) pi / k) + cos(pi / 2k)) / (1 + cos(pi / 2k))),
        i = k, ..., 1,

    which is strictly increasing; the negative half is its mirror.
    The radicand equals 1 for i = 1, so the endpoints are exactly -+1.
    """
    check_order(k)
    c = math.cos(math.pi / (2 * k))
    radicands = [(math.cos((i - 1) * math.pi / k) + c) / (1.0 + c) for i in range(k, 0, -1)]
    return _mirrored(np.array([math.sqrt(r) for r in radicands]))
