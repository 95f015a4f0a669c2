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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .errors import DegreeMismatch, NotDivisible, NotReducible
from .poly import X, Y, ZERO, BivariatePoly
from .weights import PhiCase, WeightSpec, product_rule


@dataclass(frozen=True)
class WeightedExpr:
    factors: Tuple[BivariatePoly, ...]
    exponents: Tuple[Fraction, ...]
    poly: BivariatePoly

    def __post_init__(self):
        if len(self.factors) != len(self.exponents):
            raise ValueError("one exponent per factor")


def weighted_diff(expr: WeightedExpr, axis: int) -> WeightedExpr:
    """Exact partial derivative.  Only active factors (nonzero exponent,
    nonzero dF_i along the axis) lose one from their exponent; the polynomial
    part becomes

        prod_active F_j * dpoly + (sum_{i active} e_i dF_i prod_{active j != i} F_j) * poly.
    """
    exponents = list(expr.exponents)
    active = []  # (F_i, e_i dF_i) of the active factors
    for i, (f, e) in enumerate(zip(expr.factors, expr.exponents)):
        df = f.diff(axis) if e != 0 else ZERO
        if not df.is_zero():
            active.append((f, e * df))
            exponents[i] = e - 1
    prod, rule = product_rule(active)
    new_poly = prod * expr.poly.diff(axis) + rule * expr.poly
    return WeightedExpr(expr.factors, tuple(exponents), new_poly)


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


def _divide_out(expr: WeightedExpr, rho_exps: List[Fraction]) -> BivariatePoly:
    """Divide a differentiated expression by the weight: subtract exponents
    and fold the integer residuals back into the polynomial part."""
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
    return poly


def rodrigues_eval(w: WeightSpec, case: PhiCase, n: int, m: int) -> BivariatePoly:
    """The (n, m) Rodrigues output for weight w and factor pair ``case``,
    normalized with constant 1; the result must have total degree n + m."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    return rodrigues_derivative_eval(w, case, n, m, 0, 0)


def rodrigues_derivative_eval(w: WeightSpec, case: PhiCase,
                              n: int, m: int, r: int, s: int) -> BivariatePoly:
    """Rodrigues form of the (r, s) partial derivative of the (n, m) output:
    differentiate the same bracket n-r and m-s times and divide by the
    shifted weight rho * phi10^r * phi01^s.  Degree is n + m - r - s."""
    if not (0 <= r <= n and 0 <= s <= m):
        raise ValueError("need 0 <= r <= n and 0 <= s <= m")
    basis, rho_exps, m10, c10, m01, c01 = _assemble(w, case)
    exps = [rho_exps[i] + n * m10[i] + m * m01[i] for i in range(len(basis))]
    expr = WeightedExpr(basis, tuple(exps),
                        BivariatePoly.const(c10**(n - r) * c01**(m - s)))
    for _ in range(n - r):
        expr = weighted_diff(expr, 1)
    for _ in range(m - s):
        expr = weighted_diff(expr, 2)
    shifted = [rho_exps[i] + r * m10[i] + s * m01[i] for i in range(len(basis))]
    out = _divide_out(expr, shifted)
    if out.degree() != n + m - r - s:
        what = "output" if r == s == 0 else "derivative"
        raise DegreeMismatch(
            f"Rodrigues {what} has degree {out.degree()}, expected {n + m - r - s}")
    return out
