"""Built-in golden instances: the triangle families with weight x^(u) y^(v).

Three polynomial families solve the same equation and are orthogonal for the
same weight x^(alpha-1) y^(beta-1) on the triangle x > 0, y > 0, x + y < 1:

  * the monic family, produced here directly by a terminating double
    hypergeometric sum (independent of the recurrence construction);
  * a non-monic family given by a Rodrigues formula with an explicit
    rising-factorial normalization;
  * a nested-Jacobi family built by substitution.

The latter two are connected to the monic family by explicit invertible
matrices, which the test suite verifies against three independent
construction routes.  The moment functional is normalized to L[1] = 1 so
every moment is an exact rational.

``moment`` is the closed form of one moment, kept as the oracle.  The
checks read ``moment_table`` instead: every moment through a degree as int
numerators over one common denominator, memoised per degree.  ``functional``
is one integer dot product of a polynomial's numerators with that table, and
``orthogonality_blocks`` reads L[x^(m-i) y^i q] off it by shifting the
exponents of q, so neither forms a monomial product or sums Fractions.  The
nested-Jacobi family memoises the Jacobi polynomials and the powers of its
linear substitutions, so each one costs one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import List, Optional, Tuple

from .matrix import IntRows, RationalMatrix
from .monic import build_monic
from .pde import HypergeometricPDE
from .poly import X, Y, BivariatePoly, Scalar, pochhammer, rat
from .rodrigues import rodrigues_eval
from .vectors import PolyVector, PolyVectorFamily
from .weights import PhiCase, WeightSpec, classify_phi


@dataclass(frozen=True)
class AppellParams:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("parameters must be positive")


def appell_pde(p: AppellParams) -> HypergeometricPDE:
    return HypergeometricPDE.from_coeffs(
        a=-1, b1=1, b2=1, e=-(p.alpha + p.beta + 1), f1=p.alpha, f2=p.beta)


def appell_weight(p: AppellParams) -> WeightSpec:
    return WeightSpec(p.alpha - 1, p.beta - 1)


@lru_cache(maxsize=None)
def appell_phi_case(p: AppellParams) -> PhiCase:
    return classify_phi(appell_pde(p))[0]


# -- moment functional ------------------------------------------------------

@lru_cache(maxsize=None)
def moment(p: AppellParams, i: int, j: int) -> Fraction:
    """L[x^i y^j] with L normalized to L[1] = 1: a ratio of rising
    factorials.  The closed form is pinned against a brute-force iterated
    polynomial integration oracle in the test suite."""
    if i < 0 or j < 0:
        raise ValueError("need i, j >= 0")
    return (pochhammer(p.alpha, i) * pochhammer(p.beta, j)
            / pochhammer(p.alpha + p.beta + 1, i + j))


@lru_cache(maxsize=None)
def moment_table(p: AppellParams, degree: int) -> Tuple[IntRows, int]:
    """Every moment L[x^i y^j] with i + j <= degree as int numerators over one
    common denominator: L[x^i y^j] = rows[i][j] / den.  Built from the three
    rising-factorial lists of ``moment``'s closed form, which stays the
    oracle the table is pinned against."""
    if degree < 0:
        raise ValueError("need degree >= 0")
    a, b = _rising(p.alpha, degree), _rising(p.beta, degree)
    c = _rising(p.alpha + p.beta + 1, degree)
    vals = [[a[i] * b[j] / c[i + j] for j in range(degree + 1 - i)]
            for i in range(degree + 1)]
    den = lcm(*(v.denominator for r in vals for v in r))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in r) for r in vals), den


def _rising(x: Fraction, degree: int) -> List[Fraction]:
    """[(x)_0, (x)_1, ..., (x)_degree]."""
    out = [Fraction(1)]
    for t in range(degree):
        out.append(out[-1] * (x + t))
    return out


def functional(p: AppellParams, poly: BivariatePoly) -> Fraction:
    """L applied to an arbitrary polynomial: one integer dot product of its
    numerators with the moment table."""
    terms, den = poly.as_integers()
    table, tden = moment_table(p, max((i + j for i, j in terms), default=0))
    return Fraction(sum(c * table[i][j] for (i, j), c in terms.items()), den * tden)


def orthogonality_blocks(p: AppellParams, fam: PolyVectorFamily,
                         n: int, m: int) -> RationalMatrix:
    """The (m+1) x (n+1) matrix L[xvec(m) P_n^T]; zero when m < n, and an
    invertible matrix H_n when m = n.  Entry (r, k) reads L[x^(m-r) y^r q_k]
    off the moment table by shifting the exponents of q_k, with every q_k
    scaled to the lcm of their denominators."""
    table, tden = moment_table(p, n + m)
    forms = [q.as_integers() for q in fam.vector(n)]
    den = lcm(*(d for _, d in forms))
    cols = [[(i, j, c * (den // d)) for (i, j), c in terms.items()] for terms, d in forms]
    return RationalMatrix.from_integers(
        [[sum(c * table[i + m - r][j + r] for i, j, c in col) for col in cols]
         for r in range(m + 1)], den * tden)


# -- monic family by terminating double series --------------------------------

def monic_appell_series(p: AppellParams, n: int, m: int) -> BivariatePoly:
    """Monic degree-(n+m) eigensolution via the terminating double
    hypergeometric sum; leading monomial x^n y^m with coefficient 1."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    a, b = p.alpha, p.beta
    nm = n + m
    pref = (Fraction(-1) ** nm) * pochhammer(a, n) * pochhammer(b, m) \
        / pochhammer(a + b + nm, nm)
    out = BivariatePoly.zero()
    for j in range(n + 1):
        for k in range(m + 1):
            c = (pochhammer(a + b + nm, j + k)
                 * pochhammer(-n, j) * pochhammer(-m, k)
                 / (pochhammer(a, j) * pochhammer(b, k)
                    * factorial(j) * factorial(k)))
            out = out + BivariatePoly.monomial(j, k, c)
    return out * pref


def monic_appell_vector(p: AppellParams, n: int) -> PolyVector:
    return PolyVector([monic_appell_series(p, n - k, k) for k in range(n + 1)])


# -- classical univariate building block ---------------------------------------

@lru_cache(maxsize=None)
def jacobi(a: Scalar, b: Scalar, n: int) -> BivariatePoly:
    """Degree-n Jacobi polynomial in x, classical normalization
    P_n(1) = (a+1)_n / n!, by the exact three-term recurrence; memoised, so
    each degree costs one recurrence step."""
    a, b = rat(a), rat(b)
    if a <= -1 or b <= -1:
        raise ValueError("need a, b > -1")
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return BivariatePoly.const(1)
    if n == 1:
        return BivariatePoly({(1, 0): (a + b + 2) / 2, (0, 0): (a - b) / 2})
    c0 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
    c1 = (2 * n + a + b - 1) * (a * a - b * b)
    c2 = (2 * n + a + b - 1) * (2 * n + a + b) * (2 * n + a + b - 2)
    c3 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
    return ((c2 * X + BivariatePoly.const(c1)) * jacobi(a, b, n - 1)
            - c3 * jacobi(a, b, n - 2)) * (1 / c0)


# -- nested-Jacobi family -------------------------------------------------------

_ONE_MINUS_X = BivariatePoly.const(1) - X
_LEVER = 2 * Y - _ONE_MINUS_X  # (1-x) * (2y/(1-x) - 1)
_SHIFTED_X = 2 * X - BivariatePoly.const(1)


@lru_cache(maxsize=None)
def _power(base: BivariatePoly, k: int) -> BivariatePoly:
    """base**k, one product per power on top of the memoised lower one."""
    return BivariatePoly.const(1) if k == 0 else _power(base, k - 1) * base


def koornwinder(p: AppellParams, n: int, m: int) -> BivariatePoly:
    """P_n^(2m+beta, alpha-1)(2x-1) (1-x)^m P_m^(0, beta-1)(2y/(1-x) - 1),
    expanded exactly: the (1-x)^m prefactor clears every denominator of the
    inner substitution."""
    inner_poly = jacobi(0, p.beta - 1, m)
    inner = BivariatePoly.zero()
    for k in range(m + 1):
        c = inner_poly.coefficient(k, 0)
        if c != 0:
            inner = inner + c * _power(_LEVER, k) * _power(_ONE_MINUS_X, m - k)
    outer_poly = jacobi(2 * m + p.beta, p.alpha - 1, n)
    outer = BivariatePoly.zero()
    for k in range(n + 1):
        c = outer_poly.coefficient(k, 0)
        if c != 0:
            outer = outer + c * _power(_SHIFTED_X, k)
    return outer * inner


def koornwinder_vector(p: AppellParams, n: int) -> PolyVector:
    return PolyVector([koornwinder(p, n - i, i) for i in range(n + 1)])


# -- Rodrigues-normalized non-monic family --------------------------------------

def nonmonic_F(p: AppellParams, n: int, m: int) -> BivariatePoly:
    """x^(1-alpha) y^(1-beta) d^(n+m)/dx^n dy^m [x^(n+alpha-1) y^(m+beta-1)
    (1-x-y)^(n+m)] / ((alpha)_n (beta)_m), via the Rodrigues engine."""
    raw = rodrigues_eval(appell_weight(p), appell_phi_case(p), n, m)
    return raw * (1 / (pochhammer(p.alpha, n) * pochhammer(p.beta, m)))


def nonmonic_F_vector(p: AppellParams, n: int) -> PolyVector:
    return PolyVector([nonmonic_F(p, n - i, i) for i in range(n + 1)])


# -- connection matrices ---------------------------------------------------------

def connection_F(p: AppellParams, n: int) -> RationalMatrix:
    """Invertible matrix carrying the monic vector to the Rodrigues-normalized
    family: entry (i, j) is (-1)^n C(n, j) (alpha+n-i)_(n-j) (beta+i)_j /
    ((alpha)_(n-j) (beta)_j)."""
    a, b = p.alpha, p.beta
    sign = Fraction(-1) ** n

    def entry(i: int, j: int) -> Fraction:
        return (sign * comb(n, j) * pochhammer(a + n - i, n - j)
                * pochhammer(b + i, j)
                / (pochhammer(a, n - j) * pochhammer(b, j)))

    return RationalMatrix.from_function(n + 1, n + 1, entry)


def connection_K(p: AppellParams, n: int) -> RationalMatrix:
    """Lower-triangular invertible matrix carrying the monic vector to the
    nested-Jacobi family: entry (i, j) is (alpha+beta+n+i)_(n-i) (beta+j)_i /
    ((n-i)! j! (i-j)!) for i >= j, zero above the diagonal."""
    a, b = p.alpha, p.beta

    def entry(i: int, j: int) -> Fraction:
        if i < j:
            return Fraction(0)
        return (pochhammer(a + b + n + i, n - i) * pochhammer(b + j, i)
                / (factorial(n - i) * factorial(j) * factorial(i - j)))

    return RationalMatrix.from_function(n + 1, n + 1, entry)


# -- family selection ------------------------------------------------------------

def make_family(pde: HypergeometricPDE, name: str, params: Optional[AppellParams],
                top: int) -> PolyVectorFamily:
    """The named solution family through degree top: the monic family of any
    equation, or one of the triangle's non-monic families, which need the
    triangle parameters."""
    if name == "monic":
        return build_monic(pde, top)
    if params is None:
        raise ValueError("non-monic families need the triangle parameters")
    make = nonmonic_F_vector if name == "appell-F" else koornwinder_vector
    return PolyVectorFamily([make(params, n) for n in range(top + 1)])
