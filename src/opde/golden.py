"""Closed-form entry tables for the monic triangle family.

Every matrix of the recurrence (B, C), structure (W, S, T) and derivative
representation (V, Y, Z) of the monic family orthogonal for x^(alpha-1)
y^(beta-1) on the triangle has explicit banded entries in (alpha, beta, n, i).
They are kept verbatim here, physically separate from the general
constructions in ``relations``/``monic``, so that agreement tests between the
two are meaningful.  Entries that failed the exact identity oracle were
corrected; see ERRATA.md for the list.

Validity ranges: B from n = 0, C/W/S/T from n = 1, V/Y/Z from n = 2
(derivative representations need three derivative layers).  Outside these,
IndexOutOfPrintedRange is raised.

The formulas run on ``_Q``, an exact rational that keeps an int numerator and
denominator and never reduces them: an entry costs a few int products and no
gcd.  Each table is put in lowest terms once, by one
``RationalMatrix.from_integers`` over the lcm of its entry denominators.  A
zero divisor raises ZeroDivisionError, as Fraction does.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Union

from .errors import IndexOutOfPrintedRange
from .matrix import RationalMatrix
from .poly import Scalar, rat


class _Q:
    """p/q for ints p and q != 0, never reduced; arithmetic with ints and
    other ``_Q`` only."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int = 1):
        if q == 0:
            raise ZeroDivisionError(f"_Q({p}, 0)")
        self.p = p
        self.q = q

    def __add__(self, o):
        if type(o) is _Q:
            return _Q(self.p * o.q + o.p * self.q, self.q * o.q)
        if type(o) is int:
            return _Q(self.p + o * self.q, self.q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is _Q:
            return _Q(self.p * o.q - o.p * self.q, self.q * o.q)
        if type(o) is int:
            return _Q(self.p - o * self.q, self.q)
        return NotImplemented

    def __rsub__(self, o):
        if type(o) is int:
            return _Q(o * self.q - self.p, self.q)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is _Q:
            return _Q(self.p * o.p, self.q * o.q)
        if type(o) is int:
            return _Q(self.p * o, self.q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is _Q:
            return _Q(self.p * o.q, self.q * o.p)
        if type(o) is int:
            return _Q(self.p, self.q * o)
        return NotImplemented

    def __rtruediv__(self, o):
        if type(o) is int:
            return _Q(o * self.q, self.p)
        return NotImplemented

    def __neg__(self):
        return _Q(-self.p, self.q)

    def __pow__(self, k: int):
        return _Q(self.p ** k, self.q ** k)


_Rows = List[List[Union[int, _Q]]]


def _zeros(nrows: int, ncols: int) -> _Rows:
    return [[0] * ncols for _ in range(nrows)]


def _matrix(rows: _Rows) -> RationalMatrix:
    """The table as one integer matrix over the lcm of its entry denominators."""
    den = lcm(*(x.q for r in rows for x in r if type(x) is _Q))
    return RationalMatrix.from_integers(
        [[x.p * (den // x.q) if type(x) is _Q else x * den for x in r] for r in rows], den)


def _b1(a: _Q, b: _Q, n: int) -> _Rows:
    d0, d1 = 2 * n - 1 + a + b, 2 * n + 1 + a + b
    m = _zeros(n + 1, n + 1)
    for i in range(n + 1):
        m[i][i] = (-_Q((n - i) * 1) * (a + n - 1 - i) / d0
                   + (n + 1 - i) * (a + n - i) / d1)
    for i in range(n):
        m[i + 1][i] = _Q(-2 * (i + 1)) * (b + i) / (d0 * d1)
    return m


def _b2(a: _Q, b: _Q, n: int) -> _Rows:
    d0, d1 = 2 * n - 1 + a + b, 2 * n + 1 + a + b
    m = _zeros(n + 1, n + 1)
    for i in range(n + 1):
        m[i][i] = 1 + i * (2 * n - i + a) / d0 - (i + 1) * (a + 2 * n + 1 - i) / d1
    for i in range(n):
        m[i][i + 1] = -2 * (n - i) * (a + n - 1 - i) / (d0 * d1)
    return m


def _c_den(a: _Q, b: _Q, n: int) -> _Q:
    return (2 * n + a + b) * (2 * n - 1 + a + b) ** 2 * (2 * n - 2 + a + b)


def _c1(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n)
    for i in range(n):
        m[i][i] = (n - i) * (a + n - 1 - i) * (n + i + b) * (n - 1 + i + a + b) / d
        m[i + 1][i] = (-(i + 1) * (b + i)
                       * (2 * (n - i - 1) * (n + i + b) + a * (2 * n + a + b - 2)) / d)
    for i in range(n - 1):
        m[i + 2][i] = (i + 2) * (i + 1) * (b + i) * (b + i + 1) / d
    return m


def _c2(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n)
    for i in range(n):
        m[i][i] = (-(n - i) * (a + n - 1 - i)
                   * (b * (2 * n - 2 + b) + a * (2 * i + b) + 2 * i * (2 * n - 1 - i)) / d)
        m[i + 1][i] = (i + 1) * (a + 2 * n - 1 - i) * (b + i) * (a + b + 2 * n - 2 - i) / d
    for i in range(n - 1):
        m[i][i + 1] = (n - i) * (n - 1 - i) * (a + n - 1 - i) * (a + n - 2 - i) / d
    return m


def _w1(a: _Q, b: _Q, n: int) -> _Rows:
    m = _zeros(n + 1, n + 2)
    for i in range(n + 1):
        m[i][i] = m[i][i + 1] = _Q(i - n)
    return m


def _w2(a: _Q, b: _Q, n: int) -> _Rows:
    m = _zeros(n + 1, n + 2)
    for i in range(n + 1):
        m[i][i] = m[i][i + 1] = _Q(-i)
    return m


def _s1(a: _Q, b: _Q, n: int) -> _Rows:
    d = (2 * n - 1 + a + b) * (2 * n + 1 + a + b)
    m = _zeros(n + 1, n + 1)
    for i in range(n):
        m[i][i] = (-(n - i) * (-n + (2 * n - 1) * i - 4 * i * i
                               + (n - 2 - 3 * i) * b
                               + a * (n - 1 + i + a + b)) / d)
        m[i][i + 1] = -(n - i) * (n - 1 - i + a) * (2 * i + 1 + a + b) / d
    for i in range(n - 1):
        m[i + 1][i] = 2 * (i + 1) * (n - 1 - i) * (b + i) / d
    return m


def _s2(a: _Q, b: _Q, n: int) -> _Rows:
    d = (2 * n - 1 + a + b) * (2 * n + 1 + a + b)
    m = _zeros(n + 1, n + 1)
    for i in range(1, n + 1):
        m[i][i] = i * (b - b * b - i + b * i + 4 * i * i
                       - a * (-2 + b + 3 * i - 2 * n)
                       - 2 * (-1 + b + 3 * i) * n + 2 * n * n) / d
    for i in range(n):
        m[i + 1][i] = -(1 + i) * (b + i) * (-1 + a + b - 2 * i + 2 * n) / d
        m[i][i + 1] = 2 * i * (n - i) * (-1 + a - i + n) / d
    return m


def _t1(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n)
    for i in range(n):
        m[i][i] = ((n - i) * (n - 1 + a - i)
                   * (b * b * (1 + i) + i * i * (1 + 3 * i) + a * b * (1 + n)
                      + a * a * (n - i)
                      + b * (i * (3 + 4 * i) + n * (-2 * i + n))
                      + n * (-((-2 + i) * i) + n * (-1 - i + n))
                      + a * (i * (2 + i) + n * (-1 - 2 * i + 2 * n))) / d)
    for i in range(n - 1):
        m[i][i + 1] = ((n - i) * (n - i - 1) * (a + n - 2 - i) * (a + n - i - 1)
                       * (a + b + n + i) / d)
        m[i + 1][i] = ((b + i) * (n - i - 1) * (i + 1)
                       * (a * (a + b + n + i - 1) + b * (n - 2 * i - 3)
                          + (-2 + (2 * n - 5) * i - 3 * i * i)) / d)
    for i in range(n - 2):
        m[i + 2][i] = -(b + i) * (b + i + 1) * (n - i - 2) * (i + 1) * (i + 2) / d
    return m


def _t2(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n)
    for i in range(1, n):
        m[i][i] = (i * (n - i) * (-1 + a - i + n)
                   * (a * b + b * b - i * (1 + 3 * i - 4 * n)
                      - b * (2 + i - 2 * n) + a * (-1 + 2 * i - n)
                      - n * (1 + n)) / d)
    for i in range(1, n - 1):
        m[i][i + 1] = (-i * (n - 1 - i) * (n - i) * (-2 + a - i + n)
                       * (-1 + a - i + n) / d)
    for i in range(n):
        m[i + 1][i] = ((1 + i) * (b + i)
                       * (-3 * (1 + i) ** 3
                          + (1 + n) * (a + n) * (a + b + 2 * n)
                          + (1 + i) ** 2 * (1 + 4 * a + b + 8 * n)
                          - (1 + i) * (a * (3 + a) - (-2 + b) * b
                                       + 4 * n + 6 * a * n + 6 * n * n)) / d)
    for i in range(n - 1):
        m[i + 2][i] = ((1 + i) * (2 + i) * (b + i) * (1 + b + i)
                       * (-2 + a + b - i + 2 * n) / d)
    return m


def _v1(a: _Q, b: _Q, n: int) -> _Rows:
    return [[_Q(1, n + 1 - i) if i == k else 0 for k in range(n + 1)] for i in range(n + 1)]


def _v2(a: _Q, b: _Q, n: int) -> _Rows:
    return [[_Q(1, i + 1) if i == k else 0 for k in range(n + 1)] for i in range(n + 1)]


def _y1(a: _Q, b: _Q, n: int) -> _Rows:
    d = (2 * n + 1 + a + b) * (2 * n - 1 + a + b)
    m = _zeros(n + 1, n)
    for i in range(n):
        m[i][i] = (2 * i + 1 - a + b) / d
        m[i + 1][i] = -2 * (i + 1) * (b + i) / ((n - i) * d)
    return m


def _y2(a: _Q, b: _Q, n: int) -> _Rows:
    d = (2 * n + 1 + a + b) * (2 * n - 1 + a + b)
    m = _zeros(n + 1, n)
    for i in range(n):
        m[i][i] = -2 * (n - i) * (n - 1 - i + a) / ((1 + i) * d)
        m[i + 1][i] = (2 * n - 1 - 2 * i + a - b) / d
    return m


def _z1(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n - 1)
    for i in range(n - 1):
        m[i][i] = -(n - i) * (n - 1 - i + a) * (n + i + b) / d
        m[i + 1][i] = (i + 1) * (-2 * (i + 1) + a - b) * (b + i) / d
        m[i + 2][i] = ((i + 1) * (i + 2) * (b + i) * (b + i + 1)
                       / ((n - 1 - i) * d))
    return m


def _z2(a: _Q, b: _Q, n: int) -> _Rows:
    d = _c_den(a, b, n)
    m = _zeros(n + 1, n - 1)
    for i in range(n - 1):
        m[i][i] = ((n - 1 - i) * (n - i) * (-2 + a - i + n) * (-1 + a - i + n)
                   / ((1 + i) * d))
        m[i + 1][i] = -((n - 1 - i) * (-2 + a - i + n) * (a - b + 2 * (n - 1 - i))) / d
        m[i + 2][i] = -((2 + i) * (1 + b + i) * (-2 + a - i + 2 * n)) / d
    return m


_TABLE: Dict[str, tuple] = {
    "B1": (_b1, 0), "B2": (_b2, 0),
    "C1": (_c1, 1), "C2": (_c2, 1),
    "W1": (_w1, 1), "W2": (_w2, 1),
    "S1": (_s1, 1), "S2": (_s2, 1),
    "T1": (_t1, 1), "T2": (_t2, 1),
    "V1": (_v1, 2), "V2": (_v2, 2),
    "Y1": (_y1, 2), "Y2": (_y2, 2),
    "Z1": (_z1, 2), "Z2": (_z2, 2),
}


def golden_matrix(alpha: Scalar, beta: Scalar, n: int, which: str) -> RationalMatrix:
    if which not in _TABLE:
        raise KeyError(f"unknown matrix kind {which!r}; choose from {sorted(_TABLE)}")
    builder, n_min = _TABLE[which]
    if n < n_min:
        raise IndexOutOfPrintedRange(f"{which} entry table starts at n = {n_min}")
    a, b = rat(alpha), rat(beta)
    return _matrix(builder(_Q(a.numerator, a.denominator), _Q(b.numerator, b.denominator), n))
