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
``pairing`` gives the whole matrix L[f q] of two lists of polynomials from
the moment row of each f; ``orthogonality_blocks`` is the pairing of P_n with
the monomials of degree m.  None of them forms a polynomial product or sums
Fractions.

The series route and the connection matrices keep their printed
rising-factorial formulas but evaluate them on ints: every rising factorial
is a ratio of entries of one list per parameter (``_rising_ints``, walked
once by the term ratio x + t), and each polynomial or matrix is assembled
over one common denominator, with one reduction.  The nested-Jacobi family
is read the same way off the explicit power sum of P_n^(a,b) in (1 - t)/2,
with no polynomial product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .matrix import IntRows, RationalMatrix
from .monic import build_monic
from .pde import HypergeometricPDE
from .poly import BivariatePoly, Scalar, pochhammer, rat
from .rodrigues import rodrigues_eval
from .vectors import PolyVector, PolyVectorFamily, monomial_vector
from .weights import PhiCase, WeightSpec, classify_phi


class _AppellParamsFields(NamedTuple):
    alpha: Fraction
    beta: Fraction


class AppellParams(_AppellParamsFields):
    __slots__ = ()

    # NamedTuple._replace skips this check: build new values through cls(...)
    def __new__(cls, alpha: Scalar, beta: Scalar) -> "AppellParams":
        alpha, beta = rat(alpha), rat(beta)
        if alpha <= 0 or beta <= 0:
            raise ValueError("parameters must be positive")
        return super().__new__(cls, alpha, beta)


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
    rising-factorial lists of ``moment``'s closed form, as ints: with
    c = alpha + beta + 1, (alpha)_i (beta)_j / (c)_(i+j) is
    ra[i] rb[j] cd^(i+j) / (ad^i bd^j rc[i+j]), put over
    ad^degree bd^degree rc[degree] and reduced once.  ``moment`` stays the
    oracle the table is pinned against."""
    if degree < 0:
        raise ValueError("need degree >= 0")
    a, b, c = p.alpha, p.beta, _shifted_sum(p, 1)
    ra, rb, rc = (_rising_ints(x, degree) for x in (a, b, c))
    ad, bd, cd = a.denominator, b.denominator, c.denominator
    xs = [ra[i] * ad ** (degree - i) for i in range(degree + 1)]
    ys = [rb[j] * bd ** (degree - j) for j in range(degree + 1)]
    zs = [cd ** t * (rc[degree] // rc[t]) for t in range(degree + 1)]
    rows = [[xs[i] * ys[j] * zs[i + j] for j in range(degree + 1 - i)]
            for i in range(degree + 1)]
    den = ad ** degree * bd ** degree * rc[degree]
    g = gcd(den, *chain.from_iterable(rows))
    return tuple(tuple(v // g for v in r) for r in rows), den // g


def _shifted_sum(p: AppellParams, k: int) -> Fraction:
    """alpha + beta + k, formed from the numerators and denominators."""
    a, b = p.alpha, p.beta
    return Fraction(a.numerator * b.denominator + b.numerator * a.denominator
                    + k * a.denominator * b.denominator, a.denominator * b.denominator)


def _rising_ints(x: Fraction, k: int) -> List[int]:
    """[r_0, ..., r_k] with (x)_t = r_t / den^t for x = num / den in lowest
    terms: r_(t+1) = r_t (num + t den), one int product per step."""
    num, den = x.numerator, x.denominator
    out = [1]
    for t in range(k):
        out.append(out[-1] * (num + t * den))
    return out


def functional(p: AppellParams, poly: BivariatePoly) -> Fraction:
    """L applied to an arbitrary polynomial: one integer dot product of its
    numerators with the moment table."""
    terms, den = poly.as_integers()
    table, tden = moment_table(p, max((i + j for i, j in terms), default=0))
    return Fraction(sum(c * table[i][j] for (i, j), c in terms.items()), den * tden)


def pairing(p: AppellParams, left: Sequence[BivariatePoly],
            right: Sequence[BivariatePoly]) -> RationalMatrix:
    """The matrix L[f q], f in ``left`` by rows and q in ``right`` by columns,
    with no polynomial product: the moment row of each f (L[f x^i y^j] for
    every exponent (i, j) that occurs on the right) dotted with the
    numerators of each q.  Each side is scaled to the lcm of its
    denominators, so the whole matrix is one integer computation."""
    lforms = [f.as_integers() for f in left]
    rforms = [q.as_integers() for q in right]
    lden = lcm(*(d for _, d in lforms))
    rden = lcm(*(d for _, d in rforms))
    exps = list(dict.fromkeys(e for terms, _ in rforms for e in terms))
    where = {e: k for k, e in enumerate(exps)}
    top = (max((i + j for terms, _ in lforms for i, j in terms), default=0)
           + max((i + j for i, j in exps), default=0))
    table, tden = moment_table(p, top)
    cols = [[(where[e], c * (rden // d)) for e, c in terms.items()] for terms, d in rforms]
    out = []
    for terms, d in lforms:
        scaled = [(i, j, c * (lden // d)) for (i, j), c in terms.items()]
        row = [sum(c * table[i + u][j + v] for i, j, c in scaled) for u, v in exps]
        out.append([sum(c * row[k] for k, c in col) for col in cols])
    return RationalMatrix.from_integers(out, lden * rden * tden)


def orthogonality_blocks(p: AppellParams, fam: PolyVectorFamily,
                         n: int, m: int) -> RationalMatrix:
    """The (m+1) x (n+1) matrix L[xvec(m) P_n^T]; zero when m < n, and an
    invertible matrix H_n when m = n."""
    return pairing(p, fam.vector(n), monomial_vector(m)).transpose()


# -- monic family by terminating double series --------------------------------

def monic_appell_series(p: AppellParams, n: int, m: int) -> BivariatePoly:
    """Monic degree-(n+m) eigensolution via the terminating double
    hypergeometric sum; leading monomial x^n y^m with coefficient 1.

    With s = alpha + beta + n + m, the sum is pref * sum over j <= n, k <= m of
    (s)_(j+k) (-n)_j (-m)_k / ((alpha)_j (beta)_k j! k!) x^j y^k, where
    pref = (-1)^(n+m) (alpha)_n (beta)_m / (s)_(n+m).  Term (j, k) with pref
    folded in is (-1)^(n-j+m-k) C(n, j) C(m, k) (alpha+j)_(n-j) (beta+k)_(m-k)
    (s)_(j+k) / (s)_(n+m), so every factor is a ratio of the three rising
    factorial lists of ``_rising_ints``, each walked once by its term ratio;
    the coefficients are ints over one denominator, the leading term's."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    a, b, nm = p.alpha, p.beta, n + m
    s = _shifted_sum(p, nm)
    ra, rb, rs = _rising_ints(a, n), _rising_ints(b, m), _rising_ints(s, nm)
    ad, bd, sd = a.denominator, b.denominator, s.denominator
    # (alpha+j)_(n-j) = ra[n] / ra[j] / ad^(n-j), over ad^n; likewise beta, and
    # (s)_(j+k) / (s)_(n+m) = rs[j+k] sd^(n+m-j-k) / rs[n+m]
    xs = [(-1) ** (n - j) * comb(n, j) * (ra[n] // ra[j]) * ad ** j for j in range(n + 1)]
    ys = [(-1) ** (m - k) * comb(m, k) * (rb[m] // rb[k]) * bd ** k for k in range(m + 1)]
    ss = [rs[t] * sd ** (nm - t) for t in range(nm + 1)]
    terms = {(j, k): xj * yk * ss[j + k]
             for j, xj in enumerate(xs) for k, yk in enumerate(ys)}
    return BivariatePoly.from_integers(terms, ad ** n * bd ** m * rs[nm])


def monic_appell_vector(p: AppellParams, n: int) -> PolyVector:
    return PolyVector([monic_appell_series(p, n - k, k) for k in range(n + 1)])


# -- classical univariate building block ---------------------------------------

def _jacobi_sum(a: Scalar, b: Scalar, n: int) -> Tuple[List[int], int]:
    """Int numerators c_0..c_n over one denominator d with
    P_n^(a,b)(t) = sum_k c_k ((1 - t)/2)^k / d, the explicit power sum
    (a+1)_n / n! 2F1(-n, n+a+b+1; a+1; (1-t)/2).  Its term k is
    (-1)^k C(n, k) (a+1+k)_(n-k) (n+a+b+1)_k / n!; with A = a + 1 and
    S = n + a + b + 1, (A+k)_(n-k) = ra[n] / ra[k] / ad^(n-k) and
    (S)_k = rs[k] / sd^k on two ``_rising_ints`` lists, so every term is put
    over n! ad^n sd^n."""
    big_a, big_s = a + 1, a + b + (n + 1)
    ra, rs = _rising_ints(big_a, n), _rising_ints(big_s, n)
    ad, sd = big_a.denominator, big_s.denominator
    nums = [(-1) ** k * comb(n, k) * (ra[n] // ra[k]) * ad ** k * rs[k] * sd ** (n - k)
            for k in range(n + 1)]
    return nums, factorial(n) * ad ** n * sd ** n


# -- nested-Jacobi family -------------------------------------------------------

def koornwinder(p: AppellParams, n: int, m: int) -> BivariatePoly:
    """P_n^(2m+beta, alpha-1)(2x-1) (1-x)^m P_m^(0, beta-1)(2y/(1-x) - 1),
    expanded exactly on ints.  With u = 1 - x, the variable (1 - t)/2 of
    ``_jacobi_sum`` is u for the outer factor and (u - y)/u for the inner
    one, so the outer factor is sum_k c_k u^k and, since
    ((u - y)/u)^l u^m = sum_q C(l, q) (-y)^q u^(m-q), the inner factor is
    sum_q D_q y^q u^(m-q) with D_q = (-1)^q sum_l C(l, q) d_l.  Expanding
    u^r = sum_i C(r, i) (-x)^i, the coefficient of x^i y^q is
    (-1)^i D_q sum_k c_k C(k + m - q, i), over the two sums' denominators."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    outer, outer_den = _jacobi_sum(2 * m + p.beta, p.alpha - 1, n)
    inner, inner_den = _jacobi_sum(0, p.beta - 1, m)
    terms = {}
    for q in range(m + 1):
        d = (-1) ** q * sum(comb(l, q) * c for l, c in enumerate(inner))
        for i in range(n + m - q + 1):
            terms[(i, q)] = (-1) ** i * d * sum(comb(k + m - q, i) * c
                                                for k, c in enumerate(outer))
    return BivariatePoly.from_integers(terms, outer_den * inner_den)


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
    ((alpha)_(n-j) (beta)_j).

    Each rising factorial is a ratio of one list of ``_rising_ints``:
    (alpha+n-i)_(n-j) = (alpha)_(2n-i-j) / (alpha)_(n-i) and
    (beta+i)_j = (beta)_(i+j) / (beta)_i, so entry (i, j) is (-1)^n C(n, j)
    ra[2n-i-j] rb[i+j] / (ra[n-i] ra[n-j] rb[i] rb[j]), put over
    (ra[n] rb[n])^2."""
    ra, rb = _rising_ints(p.alpha, 2 * n), _rising_ints(p.beta, 2 * n)
    qa = [ra[n] // ra[k] for k in range(n + 1)]
    qb = [rb[n] // rb[k] for k in range(n + 1)]
    sign = (-1) ** n
    rows = [[sign * comb(n, j) * ra[2 * n - i - j] * rb[i + j] * qa[n - i] * qa[n - j]
             * qb[i] * qb[j] for j in range(n + 1)] for i in range(n + 1)]
    return RationalMatrix.from_integers(rows, (ra[n] * rb[n]) ** 2)


def connection_K(p: AppellParams, n: int) -> RationalMatrix:
    """Lower-triangular invertible matrix carrying the monic vector to the
    nested-Jacobi family: entry (i, j) is (alpha+beta+n+i)_(n-i) (beta+j)_i /
    ((n-i)! j! (i-j)!) for i >= j, zero above the diagonal.

    With c = alpha + beta + n, (c+i)_(n-i) = (c)_n / (c)_i,
    (beta+j)_i = (beta)_(i+j) / (beta)_j and 1 / ((n-i)! j! (i-j)!) =
    C(n, i) C(i, j) / n!, so every entry is read off two lists of
    ``_rising_ints`` and put over rb[n] n! cd^n bd^n."""
    b, c = p.beta, _shifted_sum(p, n)
    bd, cd = b.denominator, c.denominator
    rc, rb = _rising_ints(c, n), _rising_ints(b, 2 * n)
    rows = [[comb(n, i) * comb(i, j) * (rc[n] // rc[i]) * cd ** i * bd ** (n - i)
             * rb[i + j] * (rb[n] // rb[j]) if i >= j else 0
             for j in range(n + 1)] for i in range(n + 1)]
    return RationalMatrix.from_integers(rows, rb[n] * factorial(n) * cd ** n * bd ** n)


# -- family selection ------------------------------------------------------------

FAMILIES = ("monic", "appell-F", "koornwinder")


def triangle_params(pde: HypergeometricPDE) -> Optional[AppellParams]:
    """The p with ``appell_pde(p) == pde`` exactly, else None: (f1, f2) is
    the only candidate, and a scaled or perturbed equation is not matched."""
    if pde.f1 <= 0 or pde.f2 <= 0:
        return None
    p = AppellParams(pde.f1, pde.f2)
    return p if appell_pde(p) == pde else None


def make_family(pde: HypergeometricPDE, name: str, top: int) -> PolyVectorFamily:
    """The named solution family through degree top: the monic family of any
    equation, or a non-monic family of the triangle's equation (ValueError
    for any other), with (alpha, beta) read off it."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}: choose one of {', '.join(FAMILIES)}")
    if name == "monic":
        return build_monic(pde, top)
    params = triangle_params(pde)
    if params is None:
        raise ValueError(f"family {name!r} needs the triangle equation")
    make = nonmonic_F_vector if name == "appell-F" else koornwinder_vector
    return PolyVectorFamily([make(params, n) for n in range(top + 1)])
