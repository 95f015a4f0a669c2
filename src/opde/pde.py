"""The admissible second-order equation and its exact invariants.

The equation acting on u(x, y) is

    (a x^2 + b1 x + c1) u_xx + 2 (a xy + b3 x + c3 y + d3) u_xy
  + (a y^2 + b2 y + c2) u_yy + (e x + f1) u_x + (e y + f2) u_y
  + lambda_n u = 0,          lambda_n = -n((n-1)a + e).

The eleven coefficients live as exact rationals.  The factor 2 on the mixed
term is applied when the operator is evaluated, never stored, so the field
``d3`` (and b3, c3) can be read straight off the quadratic form.

Differentiating the equation r times in x and s times in y yields an equation
of the same shape for the derivative, with first-order coefficients

    tau_x = (e + 2a(r+s)) x + f1 + r b1 + 2 s c3,
    tau_y = (e + 2a(r+s)) y + f2 + 2 r b3 + s b2,

and constant term mu = lambda_n + (r+s) e + (r+s)(r+s-1) a.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import DegenerateDiscriminant, NotAdmissible
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

    # quadratic blocks of the principal part
    def quad_xx(self) -> BivariatePoly:
        return BivariatePoly({(2, 0): self.a, (1, 0): self.b1, (0, 0): self.c1})

    def quad_xy(self) -> BivariatePoly:
        """The half mixed coefficient a*xy + b3*x + c3*y + d3 (without the 2)."""
        return BivariatePoly({(1, 1): self.a, (1, 0): self.b3,
                              (0, 1): self.c3, (0, 0): self.d3})

    def quad_yy(self) -> BivariatePoly:
        return BivariatePoly({(0, 2): self.a, (0, 1): self.b2, (0, 0): self.c2})

    def varpi(self, k: int) -> Fraction:
        return self.a * k + self.e

    def eigenvalue(self, n: int) -> Fraction:
        return -n * ((n - 1) * self.a + self.e)


class DerivedEquation(NamedTuple):
    """The equation satisfied by the (r, s) partial derivative of a degree-n
    eigensolution of ``pde``."""

    pde: HypergeometricPDE
    r: int
    s: int
    n: int
    tau_x: BivariatePoly
    tau_y: BivariatePoly
    mu: Fraction


def check_admissible(pde: HypergeometricPDE, n_max: int) -> List[Fraction]:
    """Return [a*k + e for k = 0..2*n_max], raising NotAdmissible at the first zero.

    The closed-form coefficient tables consume these values up to index
    2*n_max - 2; checking through 2*n_max leaves headroom.  When a != 0 the
    single possible zero is k = -e/a, so an offending integer beyond the
    prefix is reported as well.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = []
    for k in range(2 * n_max + 1):
        v = pde.varpi(k)
        if v == 0:
            raise NotAdmissible(k)
        values.append(v)
    if pde.a != 0:
        root = -pde.e / pde.a
        if root.denominator == 1 and root >= 0:
            raise NotAdmissible(int(root))
    return values


def discriminant(pde: HypergeometricPDE) -> BivariatePoly:
    """(c1 + x(b1 + ax)) (c2 + y(b2 + ay)) - (d3 + b3 x + (c3 + ax) y)^2."""
    return pde.quad_xx() * pde.quad_yy() - pde.quad_xy() * pde.quad_xy()


def _beta_gamma(pde: HypergeometricPDE) -> Tuple[BivariatePoly, BivariatePoly]:
    # Pearson numerators of the base weight: rho_x/rho = beta/alpha etc.
    p = pde
    fac_x = BivariatePoly({(1, 0): -3 * p.a + p.e, (0, 0): -p.b1 - p.c3 + p.f1})
    fac_y = BivariatePoly({(0, 1): -3 * p.a + p.e, (0, 0): -p.b2 - p.b3 + p.f2})
    beta = fac_x * p.quad_yy() - fac_y * p.quad_xy()
    gamma = p.quad_xx() * fac_y - fac_x * p.quad_xy()
    return beta, gamma


def pearson_shifts(pde: HypergeometricPDE
                   ) -> Tuple[Tuple[BivariatePoly, BivariatePoly],
                              Tuple[BivariatePoly, BivariatePoly]]:
    """What one derivative adds to the Pearson numerators (beta, gamma):
    (d(alpha)/dx, omega) per x-derivative, (theta, d(alpha)/dy) per
    y-derivative."""
    a_, b_, c_ = pde.quad_xx(), pde.quad_xy(), pde.quad_yy()
    alpha = discriminant(pde)
    omega = 2 * a_ * b_.diff(1) - b_ * a_.diff(1)
    theta = 2 * c_ * b_.diff(2) - b_ * c_.diff(2)
    return (alpha.diff(1), omega), (theta, alpha.diff(2))


def pearson_numerators(pde: HypergeometricPDE, r: int = 0, s: int = 0
                       ) -> Tuple[BivariatePoly, BivariatePoly]:
    """Numerators (beta, gamma) of the Pearson system for the (r, s) weight:

        beta^(r,s) = beta + r * d(alpha)/dx + s * theta,
        gamma^(r,s) = gamma + r * omega + s * d(alpha)/dy.
    """
    beta, gamma = _beta_gamma(pde)
    if r == 0 and s == 0:
        return beta, gamma
    (bx, gx), (by, gy) = pearson_shifts(pde)
    return beta + r * bx + s * by, gamma + r * gx + s * gy


def is_potentially_self_adjoint(pde: HypergeometricPDE, r: int = 0, s: int = 0) -> bool:
    """Integrability of the (r, s) Pearson system, as a cross-multiplied
    polynomial identity (valid wherever the discriminant is nonzero):

        d/dx (gamma^(r,s) / alpha) == d/dy (beta^(r,s) / alpha).
    """
    alpha = discriminant(pde)
    if alpha.is_zero():
        raise DegenerateDiscriminant("discriminant is identically zero")
    beta, gamma = pearson_numerators(pde, r, s)
    lhs = gamma.diff(1) * alpha - gamma * alpha.diff(1)
    rhs = beta.diff(2) * alpha - beta * alpha.diff(2)
    return lhs == rhs


def derived_pde(pde: HypergeometricPDE, r: int, s: int, n: int) -> DerivedEquation:
    if r < 0 or s < 0 or r + s > n:
        raise ValueError("need r, s >= 0 and r + s <= n")
    k = r + s
    slope = pde.e + 2 * pde.a * k
    tau_x = BivariatePoly({(1, 0): slope, (0, 0): pde.f1 + r * pde.b1 + 2 * s * pde.c3})
    tau_y = BivariatePoly({(0, 1): slope, (0, 0): pde.f2 + 2 * r * pde.b3 + s * pde.b2})
    mu = pde.eigenvalue(n) + k * pde.e + k * (k - 1) * pde.a
    return DerivedEquation(pde, r, s, n, tau_x, tau_y, mu)


def apply_operator(eq: DerivedEquation, p: BivariatePoly) -> BivariatePoly:
    """D^(r,s) p + mu p; identically zero exactly when p is an eigensolution."""
    pde = eq.pde
    return (pde.quad_xx() * p.diff(1).diff(1)
            + 2 * pde.quad_xy() * p.diff(1).diff(2)
            + pde.quad_yy() * p.diff(2).diff(2)
            + eq.tau_x * p.diff(1)
            + eq.tau_y * p.diff(2)
            + eq.mu * p)
