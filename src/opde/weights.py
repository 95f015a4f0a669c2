"""Weight-factor classification and Pearson verification.

Differentiating an eigensolution r times in x and s times in y produces a
family orthogonal for a modified weight rho^(r,s) = phi^(r,s) * rho, where
phi^(r,s) factorizes as phi10^r * phi01^s.  For equations whose coefficients
land in one of ten closed-form coefficient patterns, the factor pair
(phi10, phi01) is polynomial and explicit; ``classify_phi`` returns every
matching pattern.

The pairs are read off the discriminant alpha, computed once per call; no
factorization of it is transcribed.  Each pattern's factorization of alpha
splits off two polynomials g10 and g01, and the pair is (alpha / g10,
alpha / g01) by exact division.  In patterns (iii) and (iv) alpha is minus
the square of a linear factor l, and the pair is (l^2, l^k) or its mirror
for the integer k fixed by a coefficient ratio (ERRATA.md §4).  Every pair
must pass the first-principles check ``phi_pair_consistent``; a failed
division or check is reported as NonPolynomialPhi rather than papered
over.  Each factor is sign-normalized so its minimal monomial
(graded lex) has positive coefficient, which makes pairs produced by
different patterns literally comparable.

Weights themselves are never integrated here: a weight is *supplied* as
x^u y^v prod Q_i^(w_i) and certified against the Pearson system of its
equation

    (d rho / dx) / rho = beta / alpha,
    (d rho / dy) / rho = gamma / alpha,

cross-multiplied into exact polynomial identities, where beta and gamma are
the equation's Pearson numerators.  Both log-derivatives are read off one
step of the Rodrigues kernel ``rodrigues.weighted_diff``, the one place that
differentiates a weight.  The weight of the (r, s) derivative family,
rho * phi10^r * phi01^s, is a weight of the same form (``shifted_weight``),
certified against ``pde.shifted(r, s)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .errors import (DegenerateDiscriminant, NoCaseMatches, NonPolynomialPhi,
                     NotDivisible)
from .pde import (HypergeometricPDE, discriminant, pearson_numerators,
                  pearson_shifts)
from .poly import ONE, X, Y, BivariatePoly, Scalar, rat
from .rodrigues import WeightedExpr, _assemble, weighted_diff


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


def _power_pair(p: HypergeometricPDE, alpha: BivariatePoly, mirror: bool
                ) -> Optional[Tuple[BivariatePoly, BivariatePoly]]:
    """The pair of pattern (iii), where alpha = -(b3 x + d3)^2 and the shift
    conditions give phi01 = (x + d3 / b3)^(b2 / b3) (ERRATA.md §4): (alpha, 1)
    when b2 = 0, ((x + d3 / b3)^2, (x + d3 / b3)^k) when b2 / b3 is a
    positive integer k, and None otherwise.  The mirror, pattern (iv), reads
    (b1, c3, y) for (b2, b3, x) and swaps the pair."""
    num, den, var = (p.b1, p.c3, Y) if mirror else (p.b2, p.b3, X)
    if num == 0:
        pair = alpha, ONE
    elif den != 0 and (num / den).denominator == 1 and num / den > 0:
        root = var + p.d3 / den
        pair = root * root, root ** int(num / den)
    else:
        return None
    return pair[::-1] if mirror else pair


# One row per closed-form pattern: case id, printed condition, coefficient
# test, and the factors (g10, g01) that the pattern's factorization of the
# discriminant alpha splits off, so that the pair is (alpha / g10,
# alpha / g01).  Patterns (iii) and (iv) have ``_power_pair`` instead.
_CASES = (
    ("i", "b1 = 2 c3 and b2 = 2 b3",
     lambda p: p.b1 == 2 * p.c3 and p.b2 == 2 * p.b3,
     lambda p: (ONE, ONE)),
    ("ii", "a = b3 c3 / d3, c1 = (b1 - c3) d3 / b3, c2 = (b2 - b3) d3 / c3",
     lambda p: (p.c3 != 0 and p.d3 != 0 and p.b3 != 0
                and p.a == p.b3 * p.c3 / p.d3
                and p.c1 == (p.b1 - p.c3) * p.d3 / p.b3
                and p.c2 == (p.b2 - p.b3) * p.d3 / p.c3),
     lambda p: (p.c3 * Y + p.d3, p.b3 * X + p.d3)),
    ("iii", "a = b1 = c1 = c3 = 0",
     lambda p: p.a == p.b1 == p.c1 == p.c3 == 0,
     None),
    ("iv", "a = b2 = b3 = c2 = 0",
     lambda p: p.a == p.b2 == p.b3 == p.c2 == 0,
     None),
    ("v", "a = b3 = c3 = d3 = 0",
     lambda p: p.a == p.b3 == p.c3 == p.d3 == 0,
     lambda p: (p.b2 * Y + p.c2, p.b1 * X + p.c1)),
    ("vi", "a != 0, b3 = c2 = d3 = 0, c1 = (b1 - c3) c3 / a",
     lambda p: (p.a != 0 and p.b3 == p.c2 == p.d3 == 0
                and p.c1 == (p.b1 - p.c3) * p.c3 / p.a),
     lambda p: (Y, p.a * X + p.c3)),
    ("vii", "a = b3 = 0, b1 = c3 != 0, c2 = b2 d3 / c3",
     lambda p: (p.c3 != 0 and p.a == p.b3 == 0 and p.b1 == p.c3
                and p.c2 == p.b2 * p.d3 / p.c3),
     lambda p: (p.c3 * Y + p.d3, ONE)),
    ("viii", "a = c3 = 0, b2 = b3 != 0, c1 = b1 d3 / b3",
     lambda p: (p.b3 != 0 and p.a == p.c3 == 0 and p.b2 == p.b3
                and p.c1 == p.b1 * p.d3 / p.b3),
     lambda p: (ONE, p.b3 * X + p.d3)),
    ("ix", "a != 0, c1 = c3 = d3 = 0, c2 = (b2 - b3) b3 / a",
     lambda p: (p.a != 0 and p.c1 == p.c3 == p.d3 == 0
                and p.c2 == (p.b2 - p.b3) * p.b3 / p.a),
     lambda p: (p.a * Y + p.b3, X)),
    ("x", "c1 = c2 = d3 = b3 = c3 = 0",
     lambda p: p.c1 == p.c2 == p.d3 == p.b3 == p.c3 == 0,
     lambda p: (Y, X)),
)


def classify_phi(pde: HypergeometricPDE) -> List[PhiCase]:
    """Every closed-form case whose coefficient pattern the equation matches,
    each with its (phi10, phi01) factor pair read off the discriminant.

    Pattern (iii) or (iv) is skipped when its pair is not polynomial, and
    with a zero discriminant no pattern has a pair.  A quotient that is not
    a polynomial, or a pair that fails the first-principles check
    ``phi_pair_consistent``, raises NonPolynomialPhi.
    """
    alpha = discriminant(pde)
    found: List[PhiCase] = []
    if not alpha.is_zero():
        shifts = pearson_shifts(pde)
        for case_id, condition, test, split in _CASES:
            if not test(pde):
                continue
            if split is None:
                pair = _power_pair(pde, alpha, mirror=case_id == "iv")
                if pair is None:
                    continue
            else:
                try:
                    pair = tuple(alpha.exact_div(g) for g in split(pde))
                except NotDivisible:
                    raise NonPolynomialPhi(f"case ({case_id}): factor quotient "
                                           "is not a polynomial") from None
            if not _shifts_hold(alpha, shifts, *pair):
                raise NonPolynomialPhi(f"case ({case_id}): factor pair fails "
                                       "the Pearson shift conditions")
            found.append(PhiCase(case_id, condition, *(
                -phi if phi.trailing_coefficient() < 0 else phi for phi in pair)))
    if not found:
        raise NoCaseMatches("equation fits none of the ten closed-form cases")
    return found


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
    return _shifts_hold(alpha, pearson_shifts(pde), phi10, phi01)


def _shifts_hold(alpha: BivariatePoly, shifts, phi10: BivariatePoly,
                 phi01: BivariatePoly) -> bool:
    return all(phi.diff(1) * alpha == db * phi and phi.diff(2) * alpha == dg * phi
               for phi, (db, dg) in zip((phi10, phi01), shifts))


def shifted_weight(w: WeightSpec, case: PhiCase, r: int, s: int) -> WeightSpec:
    """rho * phi10^r * phi01^s up to the scalar contents of the phi factors:
    the weight of the (r, s) derivative family.  Its factors are w's own,
    then the residual factors of (phi10, phi01), so it assembles with
    ``case`` over the same factor basis as w."""
    if r < 0 or s < 0:
        raise ValueError("need r, s >= 0")
    basis, rho_exps, m10, _, m01, _ = _assemble(w, case)
    u, v, *rest = (e + r * a + s * b for e, a, b in zip(rho_exps, m10, m01))
    return WeightSpec(u, v, tuple(zip(basis[2:], rest)))


def log_derivative(w: WeightSpec, axis: int
                   ) -> Tuple[BivariatePoly, BivariatePoly]:
    """(num, den) with (d rho / d x_axis) / rho = num / den as a formal
    rational function over a common denominator (no cancellation), read off
    one Rodrigues step of rho over its own factors x, y, Q_i: num is the
    step's polynomial part and den the product of the factors it moved.

    Terms with a zero exponent or an axis-independent factor contribute
    nothing and are left out of the common denominator.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    rho = WeightedExpr((X, Y, *(q for q, _ in w.factors)),
                       (w.u, w.v, *(e for _, e in w.factors)), ONE)
    step = weighted_diff(rho, axis)
    den = ONE
    for f, before, after in zip(rho.factors, rho.exponents, step.exponents):
        if before != after:
            den = den * f
    return step.poly, den


def verify_pearson(pde: HypergeometricPDE, w: WeightSpec) -> bool:
    """Certify a supplied weight against the Pearson system of ``pde``, as
    exact polynomial identities in both variables."""
    alpha = discriminant(pde)
    if alpha.is_zero():
        raise DegenerateDiscriminant("discriminant is identically zero")
    beta, gamma = pearson_numerators(pde)
    nx, dx = log_derivative(w, 1)
    ny, dy = log_derivative(w, 2)
    return nx * alpha == beta * dx and ny * alpha == gamma * dy
