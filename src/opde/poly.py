"""Exact bivariate polynomials over the rationals.

A polynomial in x, y is stored as integer numerators over one common
denominator: a dict mapping exponent pairs (i, j) to nonzero int numerators,
and a positive int denominator.

    x^2*y - 1/3  →  ({(2, 1): 3, (0, 0): -1}, 3)

The form is canonical: the denominator and the numerators have no common
factor, and the zero polynomial is the empty dict over 1.  Arithmetic runs on
the integers and normalizes once per result; ``coefficient``, ``terms`` and
``evaluate`` return Fractions in lowest terms.  No floats ever enter a
coefficient.  Monomials are compared in graded lexicographic order with
x > y, so within one total degree x^n > x^(n-1)y > ... > y^n.

The degree of the zero polynomial is the sentinel ``NEG_INF`` (an actual
minus infinity, not -1), so that degree arithmetic such as
deg(p*q) = deg(p) + deg(q) stays honest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple, Union

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
    """Immutable exact polynomial in two variables: nonzero int numerators
    ``_terms`` over the common denominator ``_den`` > 0, with
    gcd(_den, *numerators) == 1.  ``_hash`` is set by the first ``hash``."""

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: Dict[Exponent, Scalar] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent {(i, j)}")
                c = rat(c)
                if c != 0:
                    clean[(i, j)] = c
        # over the lcm of lowest-terms denominators no factor is common to all
        den = lcm(*(c.denominator for c in clean.values()))
        self._terms = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "BivariatePoly":
        return cls({(0, 0): rat(c)})

    @classmethod
    def from_integers(cls, terms: Mapping[Exponent, int], den: int = 1) -> "BivariatePoly":
        """The polynomial ``terms / den`` for int numerators keyed by
        nonnegative exponent pairs and a nonzero int ``den``, in canonical
        form; ``terms`` is copied, never kept."""
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        if den < 0:
            return _make({e: -c for e, c in terms.items()}, -den)
        return _make(terms, den)

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
        return Fraction(self._terms.get((i, j), 0), self._den)

    def terms(self) -> Iterable[Tuple[Exponent, Fraction]]:
        """Terms sorted leading-first (graded lex descending)."""
        den = self._den
        return [(e, Fraction(c, den))
                for e, c in sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]),
                                   reverse=True)]

    def as_integers(self) -> Tuple[Mapping[Exponent, int], int]:
        """Read-only view of the nonzero int numerators by exponent, and their
        common denominator."""
        return MappingProxyType(self._terms), self._den

    def leading_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self._terms, key=_grlex_key)

    def trailing_coefficient(self) -> Fraction:
        """Coefficient of the minimal monomial in graded lex order."""
        if not self._terms:
            return Fraction(0)
        return Fraction(self._terms[min(self._terms, key=_grlex_key)], self._den)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._den, other._den
        if a == b:
            out = dict(self._terms)
            get = out.get
            for e, c in other._terms.items():
                out[e] = get(e, 0) + c
            return _make(out, a)
        # scale both operands to the lcm of the denominators
        g = gcd(a, b)
        sa, sb = b // g, a // g
        out = {e: c * sa for e, c in self._terms.items()}
        get = out.get
        for e, c in other._terms.items():
            out[e] = get(e, 0) + c * sb
        return _make(out, a * sa)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()}, self._den)

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
            num, den = other.numerator, other.denominator
            if num == 0:
                return BivariatePoly.zero()
            return _make({e: num * c for e, c in self._terms.items()}, self._den * den)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        # convolve the numerators, multiply the denominators
        out: Dict[Exponent, int] = {}
        get = out.get
        right = list(other._terms.items())
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in right:
                e = (i1 + i2, j1 + j2)
                out[e] = get(e, 0) + c1 * c2
        return _make(out, self._den * other._den)

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
        if axis == 1:
            out = {(i - 1, j): c * i for (i, j), c in self._terms.items() if i}
        elif axis == 2:
            out = {(i, j - 1): c * j for (i, j), c in self._terms.items() if j}
        else:
            raise ValueError("axis must be 1 or 2")
        return _make(out, self._den)

    def swap(self) -> "BivariatePoly":
        """The polynomial p(y, x): x^i y^j becomes x^j y^i."""
        return _raw({(j, i): c for (i, j), c in self._terms.items()}, self._den)

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        x, y = rat(x), rat(y)
        total = sum((c * x**i * y**j for (i, j), c in self._terms.items()), Fraction(0))
        return total / self._den

    def exact_div(self, q: "BivariatePoly") -> "BivariatePoly":
        """Return r with self = q*r, or raise NotDivisible.

        Single-divisor graded-lex division: since the order is multiplicative,
        a failed leading-term division proves there is no polynomial quotient.
        The division runs on the numerators: each step scales the remainder
        and the quotient by just enough to keep the quotient term integral.
        """
        if not isinstance(q, BivariatePoly):
            q = _coerce(q)
        if q.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        rem = dict(self._terms)
        quot: Dict[Exponent, int] = {}
        scale = 1  # self numerators * scale == q numerators * quot + rem
        divisor = list(q._terms.items())
        qi, qj = q.leading_exponent()
        qc = q._terms[(qi, qj)]
        while rem:
            ri, rj = max(rem, key=_grlex_key)
            di, dj = ri - qi, rj - qj
            if di < 0 or dj < 0:
                raise NotDivisible(f"{self} is not divisible by {q}")
            rc = rem[(ri, rj)]
            g = gcd(rc, qc) if qc > 0 else -gcd(rc, qc)  # so that lift > 0
            lift, t = qc // g, rc // g
            if lift != 1:
                rem = {e: c * lift for e, c in rem.items()}
                quot = {e: c * lift for e, c in quot.items()}
                scale *= lift
            quot[(di, dj)] = t
            for (i, j), c in divisor:
                e = (i + di, j + dj)
                v = rem.get(e, 0) - t * c
                if v:
                    rem[e] = v
                else:
                    del rem[e]
        # self / q = (quot / scale) * (q._den / self._den)
        return _make({e: c * q._den for e, c in quot.items()}, scale * self._den)

    # -- comparison / hashing / display --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self._den, frozenset(self._terms.items())))
            return h

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


def _raw(terms: Dict[Exponent, int], den: int) -> BivariatePoly:
    p = BivariatePoly.__new__(BivariatePoly)
    p._terms = terms
    p._den = den
    return p


def _make(terms: Dict[Exponent, int], den: int) -> BivariatePoly:
    """The canonical polynomial with numerators ``terms`` over ``den`` > 0:
    zero numerators dropped, the common factor divided out."""
    terms = {e: c for e, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())  # den itself when every term cancelled
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    return _raw(terms, den)


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
