"""Symbolic evaluation of Rodrigues-type formulas.

A weighted expression is

    F_0^(e_0) * F_1^(e_1) * ... * F_k^(e_k) * poly

over a factor basis fixed per computation (x, y, the supplied weight factors,
plus whatever extra factors the weight-shift polynomials contribute).  The
representation is closed under partial differentiation.  A factor is active
for an axis when its exponent is nonzero and it depends on that axis; one
derivative decrements the exponent of every active factor and folds the
product rule, cleared of those factors' denominators, into the polynomial
part.  Inactive factors are constants for that derivative: their exponents
stay and they never enter the polynomial part.

The degree-(n+m) eigensolution attached to a weight rho and factor pair
(phi10, phi01) is

    (1 / rho) * d^(n+m) / dx^n dy^m [ rho * phi10^n * phi01^m ]

with the normalizing constant fixed to 1.  Division by rho is exponent
subtraction; leftover integer exponents are folded back into the polynomial
part by expansion or exact division.  Weights whose residual exponents are
not integers are outside the supported class and are rejected, never
approximated.

The derivative-order variant produces, for every admissible index tuple, an
exact polynomial eigensolution of the (r, s)-derived equation.  It agrees
with the literal mixed derivative of the base output (up to a nonzero
rational) on univariate chains (n = 0 or m = 0), at full depth
(r, s) = (n, m) and at (r, s) = (0, 0); for intermediate mixed orders the
two are distinct members of the same multi-dimensional eigenspace (see
ERRATA.md).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

from .errors import DegreeMismatch, NotDivisible, NotReducible
from .poly import ONE, X, Y, BivariatePoly

if TYPE_CHECKING:  # weights imports this module; the types annotate only
    from .weights import PhiCase, WeightSpec


class _WeightedExprFields(NamedTuple):
    factors: Tuple[BivariatePoly, ...]
    exponents: Tuple[Fraction, ...]
    poly: BivariatePoly


class WeightedExpr(_WeightedExprFields):
    __slots__ = ()

    # NamedTuple._replace skips this check: build new values through cls(...)
    def __new__(cls, factors: Tuple[BivariatePoly, ...],
                exponents: Tuple[Fraction, ...], poly: BivariatePoly) -> "WeightedExpr":
        if len(factors) != len(exponents):
            raise ValueError("one exponent per factor")
        return super().__new__(cls, factors, exponents, poly)


def weighted_diff(expr: WeightedExpr, axis: int) -> WeightedExpr:
    """Exact partial derivative.  Only active factors (nonzero exponent,
    nonzero dF_i along the axis) lose one from their exponent; the polynomial
    part becomes

        prod_active F_j * dpoly + (sum_{i active} e_i G_i) * poly,
        G_i = dF_i prod_{active j != i} F_j,

    summed as int numerators over one denominator and normalized once.
    """
    exponents = list(expr.exponents)
    active, prod, prod_den, rules = _step_rule(
        expr.factors, tuple(e != 0 for e in exponents), axis)
    den = prod_den
    for i, (_, g_den) in zip(active, rules):
        den = lcm(den, exponents[i].denominator * g_den)
    # stencil[k] = [P, R]: the monomial c x^i y^j of the polynomial part adds
    # c * (deg * P + R) at k + (i, j), deg its power of the axis variable;
    # P terms are stored one power of that variable down
    dx, dy = (1, 0) if axis == 1 else (0, 1)
    scale = den // prod_den
    stencil = {(a - dx, b - dy): [c * scale, 0] for (a, b), c in prod}
    for i, (g, g_den) in zip(active, rules):
        e = exponents[i]
        scale = e.numerator * (den // (e.denominator * g_den))
        for k, c in g:
            stencil.setdefault(k, [0, 0])[1] += c * scale
        exponents[i] = e - 1
    full = [(a, b, p, r) for (a, b), (p, r) in stencil.items()]
    rule_only = [(a, b, r) for a, b, _, r in full if r]
    terms, poly_den = expr.poly.as_integers()
    out: Dict[Tuple[int, int], int] = {}
    get = out.get
    for (i, j), c in terms.items():
        deg = i if axis == 1 else j
        if deg:
            for a, b, p, r in full:
                k = (a + i, b + j)
                out[k] = get(k, 0) + c * (deg * p + r)
        else:
            for a, b, r in rule_only:
                k = (a + i, b + j)
                out[k] = get(k, 0) + c * r
    return WeightedExpr(expr.factors, tuple(exponents),
                        BivariatePoly.from_integers(out, poly_den * den))


@lru_cache(maxsize=None)
def _step_rule(factors: Tuple[BivariatePoly, ...], live: Tuple[bool, ...], axis: int):
    """The product rule of one derivative step, for the factors flagged
    ``live`` (nonzero exponent): the indices of the active ones, the
    numerator terms and denominator of their product, and of each G_i."""
    active = tuple(i for i, (f, on) in enumerate(zip(factors, live))
                   if on and not f.diff(axis).is_zero())
    prod = ONE
    rules = []
    for i in active:
        prod = prod * factors[i]
        g = factors[i].diff(axis)
        for j in active:
            if j != i:
                g = g * factors[j]
        rules.append(_integer_terms(g))
    return (active, *_integer_terms(prod), tuple(rules))


def _integer_terms(p: BivariatePoly):
    terms, den = p.as_integers()
    return tuple(terms.items()), den


def _peel(phi: BivariatePoly, basis: List[BivariatePoly]
          ) -> Tuple[List[int], Fraction]:
    """Write phi as const * prod basis[i]^mult[i], extending the basis with
    one opaque residual factor if needed."""
    if phi.is_zero():
        raise ValueError("a phi factor is the zero polynomial")
    counts = [0] * len(basis)
    rem = phi
    for idx, f in enumerate(basis):
        while True:
            try:
                rem = rem.exact_div(f)
                counts[idx] += 1
            except NotDivisible:
                break
    if rem.degree() == 0:
        return counts, rem.coefficient(0, 0)
    basis.append(rem)
    counts.append(1)
    return counts, Fraction(1)


@lru_cache(maxsize=None)
def _assemble(w: WeightSpec, case: PhiCase):
    """Factor basis, the weight's own exponents, the phi multiplicity
    vectors, and the scalar contents of the two phi factors; computed once
    per (weight, factor pair), as tuples so no caller can change them."""
    basis: List[BivariatePoly] = [X, Y] + [q for q, _ in w.factors]
    m10, c10 = _peel(case.phi10, basis)
    m01, c01 = _peel(case.phi01, basis)
    size = len(basis)
    m10 += [0] * (size - len(m10))
    m01 += [0] * (size - len(m01))
    rho_exps = [w.u, w.v] + [wt for _, wt in w.factors] + [Fraction(0)] * (size - 2 - len(w.factors))
    return tuple(basis), tuple(rho_exps), tuple(m10), c10, tuple(m01), c01


def _divide_out(expr: WeightedExpr, rho_exps: Sequence[Fraction], degree: int,
                what: str = "output") -> BivariatePoly:
    """Divide a differentiated expression by the weight: subtract exponents
    and fold the integer residuals back into the polynomial part, which must
    have total degree ``degree``."""
    poly = expr.poly
    for f, have, want in zip(expr.factors, expr.exponents, rho_exps):
        res = have - want
        if res.denominator != 1:
            raise NotReducible(f"residual exponent {res} on factor {f} is not an integer")
        t = int(res)
        if t > 0:
            poly = poly * f**t
        elif t < 0:
            try:
                poly = poly.exact_div(f**(-t))
            except NotDivisible:
                raise NotReducible(
                    f"polynomial part is not divisible by ({f})^{-t}") from None
    if poly.degree() != degree:
        raise DegreeMismatch(f"Rodrigues {what} has degree {poly.degree()}, expected {degree}")
    return poly


def shifted_weight(w: WeightSpec, case: PhiCase, r: int, s: int) -> WeightedExpr:
    """rho * phi10^r * phi01^s over the factor basis of (w, case), up to the
    scalar contents of the phi factors: polynomial part 1."""
    basis, rho_exps, m10, _, m01, _ = _assemble(w, case)
    return WeightedExpr(basis, tuple(e + r * a + s * b
                                     for e, a, b in zip(rho_exps, m10, m01)), ONE)


def _bracket(w: WeightSpec, case: PhiCase, n: int, m: int, r: int = 0, s: int = 0
             ) -> WeightedExpr:
    """rho * phi10^n * phi01^m over the factor basis, with the scalar
    contents of the n - r and m - s factors that get differentiated."""
    _, _, _, c10, _, c01 = _assemble(w, case)
    root = shifted_weight(w, case, n, m)
    return WeightedExpr(root.factors, root.exponents,
                        BivariatePoly.const(c10**(n - r) * c01**(m - s)))


def rodrigues_eval(w: WeightSpec, case: PhiCase, n: int, m: int) -> BivariatePoly:
    """The (n, m) Rodrigues output for weight w and factor pair ``case``,
    normalized with constant 1; the result must have total degree n + m."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    return rodrigues_derivative_eval(w, case, n, m, 0, 0)


def rodrigues_table(w: WeightSpec, case: PhiCase, N: int
                    ) -> Dict[Tuple[int, int], BivariatePoly]:
    """Every output ``rodrigues_eval(w, case, n, m)`` with n + m <= N, keyed
    by (n, m) in order of total degree, then m ascending.

    Outputs whose brackets rho * phi10^n * phi01^m coincide (on the disk,
    phi10 = phi01, every pair of one total degree) share one chain of
    y-derivatives; each output branches its x-derivatives from step m of its
    chain.  Partial derivatives commute, so every output is the polynomial
    the x-first evaluation gives, and the outputs are divided out in key
    order, so an unsupported weight fails at the same first pair."""
    if N < 0:
        raise ValueError("need N >= 0")
    rho_exps = shifted_weight(w, case, 0, 0).exponents
    chains: Dict[Tuple[tuple, BivariatePoly], List[WeightedExpr]] = {}
    out: Dict[Tuple[int, int], BivariatePoly] = {}
    for total in range(N + 1):
        for m in range(total + 1):
            n = total - m
            root = _bracket(w, case, n, m)
            chain = chains.setdefault((root.exponents, root.poly), [root])
            while len(chain) <= m:
                chain.append(weighted_diff(chain[-1], 2))
            expr = chain[m]
            for _ in range(n):
                expr = weighted_diff(expr, 1)
            out[(n, m)] = _divide_out(expr, rho_exps, total)
    return out


def rodrigues_derivative_eval(w: WeightSpec, case: PhiCase,
                              n: int, m: int, r: int, s: int) -> BivariatePoly:
    """Rodrigues form of the (r, s) partial derivative of the (n, m) output:
    differentiate the same bracket n-r and m-s times and divide by the
    shifted weight rho * phi10^r * phi01^s.  Degree is n + m - r - s."""
    if not (0 <= r <= n and 0 <= s <= m):
        raise ValueError("need 0 <= r <= n and 0 <= s <= m")
    expr = _bracket(w, case, n, m, r, s)
    for _ in range(n - r):
        expr = weighted_diff(expr, 1)
    for _ in range(m - s):
        expr = weighted_diff(expr, 2)
    return _divide_out(expr, shifted_weight(w, case, r, s).exponents, n + m - r - s,
                       "output" if r == s == 0 else "derivative")
