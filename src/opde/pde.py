"""The admissible second-order equation and its exact invariants.

The equation acting on u(x, y) is

    (a x^2 + b1 x + c1) u_xx + 2 (a xy + b3 x + c3 y + d3) u_xy
  + (a y^2 + b2 y + c2) u_yy + (e x + f1) u_x + (e y + f2) u_y
  + lambda_n u = 0,          lambda_n = -n((n-1)a + e).

The eleven coefficients live as exact rationals.  The factor 2 on the mixed
term is applied when the operator is evaluated, never stored, so the field
``d3`` (and b3, c3) can be read straight off the quadratic form.

Admissibility (no eigenvalue gap a k + e, k >= 0, vanishes) is read off a
and e alone; ``check_class`` adds potential self-adjointness to it.

Differentiating the equation r times in x and s times in y yields an equation
of the same class for the derivative, ``pde.shifted(r, s)``: the principal
part stays and only the first-order coefficients move,

    e'  = e + 2a(r+s),
    f1' = f1 + r b1 + 2 s c3,
    f2' = f2 + 2 r b3 + s b2,

so the (r, s) derivative of a degree-n eigensolution is a degree-(n-r-s)
eigensolution of the shifted equation.

The principal part's polynomials (quadratic blocks, discriminant, Pearson
shifts) depend on a, b1, c1, b2, c2, b3, c3, d3 alone, so ``_principal``
builds them once for an equation and every equation shifted from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Tuple

from .errors import DegenerateDiscriminant, NotAdmissible, NotSelfAdjoint
from .poly import BivariatePoly, rat


class HypergeometricPDE(NamedTuple):
    a: Fraction
    b1: Fraction
    c1: Fraction
    b2: Fraction
    c2: Fraction
    b3: Fraction
    c3: Fraction
    d3: Fraction
    e: Fraction
    f1: Fraction
    f2: Fraction

    @classmethod
    def from_coeffs(cls, a=0, b1=0, c1=0, b2=0, c2=0, b3=0, c3=0, d3=0,
                    e=0, f1=0, f2=0) -> "HypergeometricPDE":
        return cls(rat(a), rat(b1), rat(c1), rat(b2), rat(c2), rat(b3),
                   rat(c3), rat(d3), rat(e), rat(f1), rat(f2))

    def varpi(self, k: int) -> Fraction:
        return self.a * k + self.e

    def eigenvalue(self, n: int) -> Fraction:
        return -n * ((n - 1) * self.a + self.e)

    def shifted(self, r: int, s: int) -> "HypergeometricPDE":
        """The equation solved by the (r, s) partial derivatives of this
        equation's eigensolutions."""
        if r < 0 or s < 0:
            raise ValueError("need r, s >= 0")
        return self._replace(e=self.e + 2 * self.a * (r + s),
                             f1=self.f1 + r * self.b1 + 2 * s * self.c3,
                             f2=self.f2 + 2 * r * self.b3 + s * self.b2)


def check_admissible(pde: HypergeometricPDE) -> None:
    """Raise NotAdmissible(k) at the k >= 0 where the gap a*k + e vanishes.

    The gap is linear in k: when a != 0 it vanishes only at k = -e/a, when
    a = e = 0 at every k (reported as k = 0), and otherwise never.
    """
    if pde.a != 0:
        root = -pde.e / pde.a
        if root.denominator == 1 and root >= 0:
            raise NotAdmissible(int(root))
    elif pde.e == 0:
        raise NotAdmissible(0)


_Pair = Tuple[BivariatePoly, BivariatePoly]


class _Principal(NamedTuple):
    xx: BivariatePoly     # a x^2 + b1 x + c1
    xy: BivariatePoly     # the half mixed coefficient a xy + b3 x + c3 y + d3
    yy: BivariatePoly     # a y^2 + b2 y + c2
    alpha: BivariatePoly  # the discriminant
    shifts: Tuple[_Pair, _Pair]


@lru_cache(maxsize=None)
def _principal(coeffs: Tuple[Fraction, ...]) -> _Principal:
    """The principal part's polynomials for (a, b1, c1, b2, c2, b3, c3, d3)."""
    a, b1, c1, b2, c2, b3, c3, d3 = coeffs
    xx = BivariatePoly({(2, 0): a, (1, 0): b1, (0, 0): c1})
    xy = BivariatePoly({(1, 1): a, (1, 0): b3, (0, 1): c3, (0, 0): d3})
    yy = BivariatePoly({(0, 2): a, (0, 1): b2, (0, 0): c2})
    alpha = xx * yy - xy * xy
    omega = 2 * xx * xy.diff(1) - xy * xx.diff(1)
    theta = 2 * yy * xy.diff(2) - xy * yy.diff(2)
    return _Principal(xx, xy, yy, alpha, ((alpha.diff(1), omega), (theta, alpha.diff(2))))


def discriminant(pde: HypergeometricPDE) -> BivariatePoly:
    """(c1 + x(b1 + ax)) (c2 + y(b2 + ay)) - (d3 + b3 x + (c3 + ax) y)^2,
    one object for every equation with this principal part."""
    return _principal(pde[:8]).alpha


def pearson_shifts(pde: HypergeometricPDE) -> Tuple[_Pair, _Pair]:
    """What one derivative adds to the Pearson numerators (beta, gamma):
    (d(alpha)/dx, omega) per x-derivative, (theta, d(alpha)/dy) per
    y-derivative; one object for every equation with this principal part."""
    return _principal(pde[:8]).shifts


def pearson_numerators(pde: HypergeometricPDE
                       ) -> Tuple[BivariatePoly, BivariatePoly]:
    """Numerators (beta, gamma) of the Pearson system rho_x/rho = beta/alpha,
    rho_y/rho = gamma/alpha.  Those of the (r, s) derivative family are the
    shifted equation's, beta + r * d(alpha)/dx + s * theta and
    gamma + r * omega + s * d(alpha)/dy."""
    p = pde
    quad = _principal(p[:8])
    fac_x = BivariatePoly({(1, 0): -3 * p.a + p.e, (0, 0): -p.b1 - p.c3 + p.f1})
    fac_y = BivariatePoly({(0, 1): -3 * p.a + p.e, (0, 0): -p.b2 - p.b3 + p.f2})
    beta = fac_x * quad.yy - fac_y * quad.xy
    gamma = quad.xx * fac_y - fac_x * quad.xy
    return beta, gamma


def is_potentially_self_adjoint(pde: HypergeometricPDE) -> bool:
    """Integrability of the Pearson system, as a cross-multiplied polynomial
    identity (valid wherever the discriminant is nonzero):

        d/dx (gamma / alpha) == d/dy (beta / alpha).
    """
    alpha = discriminant(pde)
    if alpha.is_zero():
        raise DegenerateDiscriminant("discriminant is identically zero")
    beta, gamma = pearson_numerators(pde)
    lhs = gamma.diff(1) * alpha - gamma * alpha.diff(1)
    rhs = beta.diff(2) * alpha - beta * alpha.diff(2)
    return lhs == rhs


def check_class(pde: HypergeometricPDE) -> None:
    """The gate of the equations opde builds families for: admissible
    (NotAdmissible), then potentially self-adjoint (NotSelfAdjoint, or
    DegenerateDiscriminant when the discriminant vanishes identically)."""
    check_admissible(pde)
    if not is_potentially_self_adjoint(pde):
        raise NotSelfAdjoint("no integrating-factor weight exists")


@lru_cache(maxsize=None)
def _operator_coefficients(pde: HypergeometricPDE) -> Tuple[BivariatePoly, ...]:
    """The polynomial coefficients of u_xx, u_xy, u_yy, u_x and u_y."""
    quad = _principal(pde[:8])
    return (quad.xx, 2 * quad.xy, quad.yy,
            BivariatePoly({(1, 0): pde.e, (0, 0): pde.f1}),
            BivariatePoly({(0, 1): pde.e, (0, 0): pde.f2}))


def apply_operator(pde: HypergeometricPDE, n: int, p: BivariatePoly) -> BivariatePoly:
    """D p + lambda_n p; identically zero exactly when p is a degree-n
    eigensolution.  The (r, s) derivative of one is checked on
    ``pde.shifted(r, s)`` at degree n - r - s."""
    if n < 0:
        raise ValueError("need n >= 0")
    uxx, uxy, uyy, ux, uy = _operator_coefficients(pde)
    return (uxx * p.diff(1).diff(1)
            + uxy * p.diff(1).diff(2)
            + uyy * p.diff(2).diff(2)
            + ux * p.diff(1)
            + uy * p.diff(2)
            + pde.eigenvalue(n) * p)
