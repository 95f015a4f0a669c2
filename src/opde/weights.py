"""Weight-factor classification and Pearson verification.

Differentiating an eigensolution r times in x and s times in y produces a
family orthogonal for a modified weight rho^(r,s) = phi^(r,s) * rho, where
phi^(r,s) factorizes as phi10^r * phi01^s.  For equations whose coefficients
land in one of ten closed-form coefficient patterns, the factor pair
(phi10, phi01) is polynomial and explicit; ``classify_phi`` returns every
matching pattern.

Factor quotients in the closed-form table are carried out by exact division;
a failed division means the table entry cannot apply and is reported rather
than papered over.  Each factor is sign-normalized so its minimal monomial
(graded lex) has positive coefficient, which makes pairs produced by
different patterns literally comparable.

Weights themselves are never integrated here: a weight is *supplied* as
x^u y^v prod Q_i^(w_i) and certified against the Pearson system

    (d rho / dx) / rho = beta^(r,s) / alpha,
    (d rho / dy) / rho = gamma^(r,s) / alpha,

cross-multiplied into exact polynomial identities.  Both log-derivatives
are read off one step of the Rodrigues kernel ``rodrigues.weighted_diff``,
the one place that differentiates a weight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .errors import (DegenerateDiscriminant, NoCaseMatches, NonPolynomialPhi,
                     NotDivisible)
from .matrix import RationalMatrix
from .pde import (HypergeometricPDE, discriminant, pearson_numerators,
                  pearson_shifts)
from .poly import ONE, X, Y, BivariatePoly, Scalar, rat
from .rodrigues import WeightedExpr, shifted_weight, weighted_diff


class PhiCase(NamedTuple):
    case_id: str
    condition: str
    phi10: BivariatePoly
    phi01: BivariatePoly


class _WeightSpecFields(NamedTuple):
    u: Fraction
    v: Fraction
    factors: Tuple[Tuple[BivariatePoly, Fraction], ...]


class WeightSpec(_WeightSpecFields):
    """rho = x^u * y^v * prod Q_i^(w_i), with fixed polynomial factors Q_i."""

    __slots__ = ()

    # NamedTuple._replace skips this check: build new values through cls(...)
    def __new__(cls, u: Scalar, v: Scalar,
                factors: Tuple[Tuple[BivariatePoly, Scalar], ...] = ()) -> "WeightSpec":
        u, v = rat(u), rat(v)
        clean = []
        for q, w in factors:
            if q.is_zero():
                raise ValueError("zero weight factor")
            if q.degree() == 0:
                raise ValueError("constant weight factor carries no information")
            clean.append((q, rat(w)))
        return super().__new__(cls, u, v, tuple(clean))


def _normalize_sign(p: BivariatePoly) -> BivariatePoly:
    if p.trailing_coefficient() < 0:
        return -p
    return p


def _div(num: BivariatePoly, den: BivariatePoly, case_id: str) -> BivariatePoly:
    try:
        return num.exact_div(den)
    except NotDivisible:
        raise NonPolynomialPhi(
            f"case ({case_id}): factor quotient is not a polynomial") from None


def _solve_phi(pde: HypergeometricPDE, dbx: BivariatePoly, dgy: BivariatePoly,
               max_degree: int = 12) -> Optional[BivariatePoly]:
    """Polynomial phi with alpha * phi_x = dbx * phi and alpha * phi_y = dgy * phi,
    found by an exact nullspace solve over ascending degree bounds; None when
    no polynomial solution exists within the bound.  Such a phi is unique up
    to a scalar, so the first nullspace vector is the answer."""
    alpha = discriminant(pde)
    if alpha.is_zero():
        return None
    for bound in range(1, max_degree + 1):
        monos = [(d - j, j) for d in range(bound + 1) for j in range(d + 1)]
        residuals_x = []
        residuals_y = []
        for (i, j) in monos:
            phi = BivariatePoly.monomial(i, j)
            residuals_x.append(alpha * phi.diff(1) - dbx * phi)
            residuals_y.append(alpha * phi.diff(2) - dgy * phi)
        out_monos = sorted({m for p in residuals_x + residuals_y for m, _ in p.terms()})
        if not out_monos:
            return BivariatePoly.const(1)
        mat = [[p.coefficient(*m) for p in residuals_x] for m in out_monos]
        mat += [[p.coefficient(*m) for p in residuals_y] for m in out_monos]
        basis = RationalMatrix(mat).nullspace()
        if basis:
            return BivariatePoly({m: v for m, v in zip(monos, basis[0])})
    return None


def classify_phi(pde: HypergeometricPDE) -> List[PhiCase]:
    """Every closed-form case whose coefficient pattern the equation matches,
    each with its (phi10, phi01) factor pair.

    A table entry that fails the first-principles consistency check (some
    entries silently assume extra vanishing coefficients; see ERRATA.md) is
    replaced by the pair reconstructed from the Pearson-shift conditions; if
    no polynomial pair exists the pattern is skipped.
    """
    p = pde
    x, y = X, Y
    found: List[PhiCase] = []

    def emit(case_id: str, condition: str, phi10: BivariatePoly, phi01: BivariatePoly):
        if phi10.is_zero() or phi01.is_zero():
            return  # degenerate instance of the pattern: no usable factor pair
        if not phi_pair_consistent(pde, phi10, phi01):
            shift10, shift01 = pearson_shifts(pde)
            phi10 = _solve_phi(pde, *shift10)
            phi01 = _solve_phi(pde, *shift01)
            if phi10 is None or phi01 is None:
                return
        found.append(PhiCase(case_id, condition,
                             _normalize_sign(phi10), _normalize_sign(phi01)))

    if p.b1 == 2 * p.c3 and p.b2 == 2 * p.b3:
        alpha = discriminant(p)
        emit("i", "b1 = 2 c3 and b2 = 2 b3", alpha, alpha)

    if (p.c3 != 0 and p.d3 != 0 and p.b3 != 0
            and p.a == p.b3 * p.c3 / p.d3
            and p.c1 == (p.b1 - p.c3) * p.d3 / p.b3
            and p.c2 == (p.b2 - p.b3) * p.d3 / p.c3):
        fx = BivariatePoly({(1, 0): p.b3, (0, 0): p.d3})
        fy = BivariatePoly({(0, 1): p.c3, (0, 0): p.d3})
        inner = (-p.b1 * BivariatePoly({(0, 1): p.b3 * p.c3,
                                        (0, 0): p.b2 * p.d3 - p.b3 * p.d3})
                 + p.c3 * (p.b2 * (p.d3 - p.b3 * x) + 2 * p.b3 * (p.b3 * x + p.c3 * y)))
        alpha = (fx * fy * inner) * Fraction(-1, 1) * (1 / (p.b3 * p.c3 * p.d3))
        emit("ii", "a = b3 c3 / d3, c1 = (b1 - c3) d3 / b3, c2 = (b2 - b3) d3 / c3",
             _div(alpha, fy, "ii"), _div(alpha, fx, "ii"))

    if p.a == 0 and p.b1 == 0 and p.c1 == 0 and p.c3 == 0:
        fx = BivariatePoly({(1, 0): p.b3, (0, 0): p.d3})
        emit("iii", "a = b1 = c1 = c3 = 0", fx * fx, ONE)

    if p.a == 0 and p.b2 == 0 and p.b3 == 0 and p.c2 == 0:
        fy = BivariatePoly({(0, 1): p.c3, (0, 0): p.d3})
        emit("iv", "a = b2 = b3 = c2 = 0", ONE, fy * fy)

    if p.a == 0 and p.b3 == 0 and p.c3 == 0 and p.d3 == 0:
        emit("v", "a = b3 = c3 = d3 = 0",
             BivariatePoly({(1, 0): p.b1, (0, 0): p.c1}),
             BivariatePoly({(0, 1): p.b2, (0, 0): p.c2}))

    if (p.a != 0 and p.b3 == 0 and p.c2 == 0 and p.d3 == 0
            and p.c1 == (p.b1 - p.c3) * p.c3 / p.a):
        fx = BivariatePoly({(1, 0): p.a, (0, 0): p.c3})
        inner = (p.b2 * BivariatePoly({(1, 0): p.a, (0, 0): p.b1 - p.c3})
                 + BivariatePoly({(0, 1): p.a * (p.b1 - 2 * p.c3)}))
        alpha = (fx * y * inner) * (1 / p.a)
        emit("vi", "a != 0, b3 = c2 = d3 = 0, c1 = (b1 - c3) c3 / a",
             _div(alpha, y, "vi"), _div(alpha, fx, "vi"))

    if (p.c3 != 0 and p.a == 0 and p.b3 == 0 and p.b1 == p.c3
            and p.c2 == p.b2 * p.d3 / p.c3):
        fy = BivariatePoly({(0, 1): p.c3, (0, 0): p.d3})
        alpha = (fy * (p.b2 * BivariatePoly({(1, 0): p.c3, (0, 0): p.c1}) - p.c3 * fy)) \
            * (1 / p.c3)
        emit("vii", "a = b3 = 0, b1 = c3 != 0, c2 = b2 d3 / c3",
             _div(alpha, fy, "vii"), alpha)

    if (p.b3 != 0 and p.a == 0 and p.c3 == 0 and p.b2 == p.b3
            and p.c1 == p.b1 * p.d3 / p.b3):
        fx = BivariatePoly({(1, 0): p.b3, (0, 0): p.d3})
        alpha = (fx * (p.b1 * BivariatePoly({(0, 1): p.b3, (0, 0): p.c2}) - p.b3 * fx)) \
            * (1 / p.b3)
        emit("viii", "a = c3 = 0, b2 = b3 != 0, c1 = b1 d3 / b3",
             alpha, _div(alpha, fx, "viii"))

    if (p.a != 0 and p.c1 == 0 and p.c3 == 0 and p.d3 == 0
            and p.c2 == (p.b2 - p.b3) * p.b3 / p.a):
        fy = BivariatePoly({(0, 1): p.a, (0, 0): p.b3})
        inner = (BivariatePoly({(1, 0): p.a * (p.b2 - 2 * p.b3)})
                 + p.b1 * BivariatePoly({(0, 1): p.a, (0, 0): p.b2 - p.b3}))
        alpha = (x * fy * inner) * (1 / p.a)
        emit("ix", "a != 0, c1 = c3 = d3 = 0, c2 = (b2 - b3) b3 / a",
             _div(alpha, fy, "ix"), _div(alpha, x, "ix"))

    if p.c1 == 0 and p.c2 == 0 and p.d3 == 0 and p.b3 == 0 and p.c3 == 0:
        alpha = x * y * (BivariatePoly({(1, 0): p.a * p.b2})
                         + p.b1 * BivariatePoly({(0, 1): p.a, (0, 0): p.b2}))
        emit("x", "c1 = c2 = d3 = b3 = c3 = 0",
             _div(alpha, y, "x"), _div(alpha, x, "x"))

    if not found:
        raise NoCaseMatches("equation fits none of the ten closed-form cases")
    return found


def phi_rs(case: PhiCase, r: int, s: int) -> BivariatePoly:
    if r < 0 or s < 0:
        raise ValueError("need r, s >= 0")
    return case.phi10**r * case.phi01**s


def phi_pair_consistent(pde: HypergeometricPDE, phi10: BivariatePoly,
                        phi01: BivariatePoly) -> bool:
    """First-principles check that (phi10, phi01) are genuine weight-shift
    factors: the log-derivatives of phi10 must equal the (1,0) shift of the
    Pearson numerators divided by the discriminant, and likewise for phi01
    with the (0,1) shift.  All four conditions are tested cross-multiplied.
    """
    alpha = discriminant(pde)
    if alpha.is_zero():
        raise DegenerateDiscriminant("discriminant is identically zero")
    return all(phi.diff(1) * alpha == db * phi and phi.diff(2) * alpha == dg * phi
               for phi, (db, dg) in zip((phi10, phi01), pearson_shifts(pde)))


# the factor pair (1, 1): its r = s = 0 form is rho alone over rho's own basis
_NO_SHIFT = PhiCase("-", "rho alone", ONE, ONE)


def _log_derivative(rho: WeightedExpr, axis: int
                    ) -> Tuple[BivariatePoly, BivariatePoly]:
    """(num, den) with (d rho / d x_axis) / rho = num / den, read off one
    Rodrigues step of (rho, 1): num is its polynomial part and den the
    product of the factors whose exponent the step moved."""
    step = weighted_diff(rho, axis)
    den = ONE
    for f, before, after in zip(rho.factors, rho.exponents, step.exponents):
        if before != after:
            den = den * f
    return step.poly, den


def log_derivative(w: WeightSpec, axis: int
                   ) -> Tuple[BivariatePoly, BivariatePoly]:
    """(num, den) with (d rho / d x_axis) / rho = num / den as a formal
    rational function over a common denominator (no cancellation).

    Terms with a zero exponent or an axis-independent factor contribute
    nothing and are left out of the common denominator.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return _log_derivative(shifted_weight(w, _NO_SHIFT, 0, 0), axis)


def verify_pearson(pde: HypergeometricPDE, w: WeightSpec, r: int = 0, s: int = 0,
                   case: Optional[PhiCase] = None) -> bool:
    """Certify a supplied weight against the Pearson system of the (r, s)
    derivative family, as exact polynomial identities in both variables."""
    alpha = discriminant(pde)
    if alpha.is_zero():
        raise DegenerateDiscriminant("discriminant is identically zero")
    if case is None:
        case = classify_phi(pde)[0]
    beta_rs, gamma_rs = pearson_numerators(pde, r, s)
    rho_rs = shifted_weight(w, case, r, s)
    nx, dx = _log_derivative(rho_rs, 1)
    ny, dy = _log_derivative(rho_rs, 2)
    return nx * alpha == beta_rs * dx and ny * alpha == gamma_rs * dy
