"""Exact bivariate polynomials over the rationals.

A polynomial in x, y is stored as a dict mapping exponent pairs (i, j) to
nonzero Fraction coefficients:

    x^2*y - 1/3  →  {(2, 1): Fraction(1), (0, 0): Fraction(-1, 3)}

The zero polynomial is the empty dict.  All arithmetic is exact; no floats
ever enter a coefficient.  Monomials are compared in graded lexicographic
order with x > y, so within one total degree x^n > x^(n-1)y > ... > y^n.

The degree of the zero polynomial is the sentinel ``NEG_INF`` (an actual
minus infinity, not -1), so that degree arithmetic such as
deg(p*q) = deg(p) + deg(q) stays honest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

from .errors import DivisionByZeroPoly, NotDivisible

Scalar = Union[int, Fraction]
Exponent = Tuple[int, int]

NEG_INF = float("-inf")


def rat(x: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction (floats are rejected)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact arithmetic only: cannot coerce {type(x).__name__}")


def pochhammer(x: Scalar, k: int) -> Fraction:
    """Rising factorial x(x+1)...(x+k-1); empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    x = rat(x)
    out = Fraction(1)
    for t in range(k):
        out *= x + t
    return out


def _grlex_key(e: Exponent) -> Tuple[int, int]:
    # Sort key increasing in graded lex order (x > y): degree, then x-power.
    return (e[0] + e[1], e[0])


class BivariatePoly:
    """Immutable exact polynomial in two variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Exponent, Scalar] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent {(i, j)}")
                c = rat(c)
                if c != 0:
                    clean[(i, j)] = c
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "BivariatePoly":
        return cls({(0, 0): rat(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "BivariatePoly":
        return cls({(i, j): rat(c)})

    @classmethod
    def variable(cls, axis: int) -> "BivariatePoly":
        if axis == 1:
            return cls({(1, 0): Fraction(1)})
        if axis == 2:
            return cls({(0, 1): Fraction(1)})
        raise ValueError("axis must be 1 (x) or 2 (y)")

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(i + j for i, j in self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def terms(self) -> Iterable[Tuple[Exponent, Fraction]]:
        """Terms sorted leading-first (graded lex descending)."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self._terms, key=_grlex_key)

    def trailing_coefficient(self) -> Fraction:
        """Coefficient of the minimal monomial in graded lex order."""
        if not self._terms:
            return Fraction(0)
        return self._terms[min(self._terms, key=_grlex_key)]

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # fold the right operand in, then drop the coefficients that cancelled
        out = dict(self._terms)
        get = out.get
        for e, c in other._terms.items():
            s = get(e)
            out[e] = c if s is None else s + c
        return _raw({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return BivariatePoly.zero()
            return _raw({e: c * v for e, v in self._terms.items()})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        # sum every product, then drop the coefficients that cancelled
        out: Dict[Exponent, Fraction] = {}
        get = out.get
        right = list(other._terms.items())
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in right:
                e = (i1 + i2, j1 + j2)
                s = get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return _raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs a nonnegative integer exponent")
        out = BivariatePoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, axis: int) -> "BivariatePoly":
        """Exact partial derivative, axis 1 = d/dx, axis 2 = d/dy."""
        out: Dict[Exponent, Fraction] = {}
        for (i, j), c in self._terms.items():
            if axis == 1 and i > 0:
                out[(i - 1, j)] = c * i
            elif axis == 2 and j > 0:
                out[(i, j - 1)] = c * j
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return _raw(out)

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        x, y = rat(x), rat(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * x**i * y**j
        return total

    def exact_div(self, q: "BivariatePoly") -> "BivariatePoly":
        """Return r with self = q*r, or raise NotDivisible.

        Single-divisor graded-lex division: since the order is multiplicative,
        a failed leading-term division proves there is no polynomial quotient.
        """
        if not isinstance(q, BivariatePoly):
            q = _coerce(q)
        if q.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        rem = self
        quot: Dict[Exponent, Fraction] = {}
        qe = q.leading_exponent()
        qc = q._terms[qe]
        while not rem.is_zero():
            re = rem.leading_exponent()
            di, dj = re[0] - qe[0], re[1] - qe[1]
            if di < 0 or dj < 0:
                raise NotDivisible(f"{self} is not divisible by {q}")
            c = rem._terms[re] / qc
            quot[(di, dj)] = c
            rem = rem - q * BivariatePoly.monomial(di, dj, c)
        return _raw(quot)

    # -- comparison / hashing / display --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else "")
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"BivariatePoly({self})"


def _raw(terms: Dict[Exponent, Fraction]) -> BivariatePoly:
    p = BivariatePoly.__new__(BivariatePoly)
    p._terms = terms
    return p


def _coerce(x) -> BivariatePoly:
    if isinstance(x, BivariatePoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BivariatePoly.const(x)
    return NotImplemented


X = BivariatePoly.variable(1)
Y = BivariatePoly.variable(2)
ONE = BivariatePoly.const(1)
ZERO = BivariatePoly.zero()
