"""Recurrence, structure and derivative representations for vector families.

Everything here works from the expansion matrices G_{n,k} of an orthogonal
vector polynomial family (monic or not):

  * three-term recurrence       x_j P_n  = A P_{n+1} + B P_n + C P_{n-1}
  * derivative-family recurrence x_j Q_n = A~ Q_{n+1} + B~ Q_n + C~ Q_{n-1}
    where Q_n is d/dx_j P_{n+1} with one edge entry dropped through the
    shift matrix; Q_n has square invertible leading matrices, so this
    recurrence is unique (unlike any recurrence on the raw derivatives)
  * first structure relation     phi_j dP_n/dx_j = W P_{n+1} + S P_n + T P_{n-1}
  * derivative representation    P_n = V dP_{n+1}/dx_j + Y dP_n/dx_j + Z dP_{n-1}/dx_j

Each general relation is one coefficient match (``_match``): expand the
left-hand side in the monomial basis and peel its top three layers off
against the family's expansion matrices, dividing by the family's cached
leading inverses.

The derivative representation is produced in two layouts: the wide form (V,
Y, Z) acting on the raw derivative vectors, and the compact form acting on
the Q vectors.  The compact form is the unique one and is what closed-form
entry tables list; the wide form follows by composing with shift matrices.

Monic families additionally admit closed-form routes (structure relations
for n >= 3, derivative representations for n >= 2) built purely from the
equation coefficients; below their validity range the general route is used.

``Relations`` is the relation table of one family through a degree bound:
it classifies the weight-shift factors once and solves every general
relation once, and ``Relations.matrices`` names the matrices of each
degree.  ``build`` emits this table and ``verify`` checks it, so the two
commands see the same matrices under the same names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import NoCaseMatches, PhiDegreeTooHigh
from .matrix import RationalMatrix
from .monic import TtrrSet, subleading_matrices
from .pde import HypergeometricPDE
from .poly import X, Y, BivariatePoly
from .vectors import (PolyVector, PolyVectorFamily, derivative_matrix,
                      expansion_layers, shift_matrix)
from .weights import PhiCase, classify_phi

_Triple = Tuple[RationalMatrix, RationalMatrix, Optional[RationalMatrix]]


class QTtrr(NamedTuple):
    """Recurrence triple of the derivative family, for its own axis."""

    n: int
    axis: int
    a: RationalMatrix
    b: RationalMatrix
    c: Optional[RationalMatrix]


class StructureSet(NamedTuple):
    n: int
    w1: RationalMatrix
    s1: RationalMatrix
    t1: RationalMatrix
    w2: RationalMatrix
    s2: RationalMatrix
    t2: RationalMatrix

    def axis(self, j: int):
        if j not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return (self.w1, self.s1, self.t1) if j == 1 else (self.w2, self.s2, self.t2)


class DerivRep(NamedTuple):
    """Derivative representation along one axis.  The compact triple acts
    on Q_n, Q_{n-1}, Q_{n-2}; the wide triple (v, y, z) acts on the raw
    derivatives and is the compact one composed with the shift matrices,
    since Q_k = shift(k, axis) @ dP_{k+1}."""

    n: int
    axis: int
    v_compact: RationalMatrix
    y_compact: RationalMatrix
    z_compact: RationalMatrix

    @property
    def v(self) -> RationalMatrix:
        return self.v_compact @ shift_matrix(self.n, self.axis)

    @property
    def y(self) -> RationalMatrix:
        return self.y_compact @ shift_matrix(self.n - 1, self.axis)

    @property
    def z(self) -> RationalMatrix:
        return self.z_compact @ shift_matrix(self.n - 2, self.axis)


def _match(lhs: PolyVector, fam: PolyVectorFamily, top: int) -> _Triple:
    """The X_i of lhs = X_0 P_top + X_1 P_{top-1} + X_2 P_{top-2}, read off
    the top three monomial layers: with H_i the expansion matrix of lhs at
    degree top-i,

        X_i = (H_i - sum_{k<i} X_k G_{top-k, top-i}) G_{top-i, top-i}^{-1}.

    Terms below degree 0 are absent (None)."""
    h = expansion_layers(lhs, top, 3)
    xs: List[RationalMatrix] = []
    for i in range(len(h)):
        acc = h[i]
        for k, xk in enumerate(xs):
            acc = acc - xk @ fam.G(top - k, top - i)
        xs.append(acc @ fam.leading_inverse(top - i))
    return tuple(xs) + (None,) * (3 - len(xs))


def _ttrr_axis(fam: PolyVectorFamily, n: int, j: int) -> _Triple:
    return _match(fam.vector(n).scale(X if j == 1 else Y), fam, n + 1)


def general_ttrr(fam: PolyVectorFamily, n: int) -> TtrrSet:
    """Recurrence matrices of an orthogonal family from its expansion
    matrices; requires the family through degree n+1."""
    a1, b1, c1 = _ttrr_axis(fam, n, 1)
    a2, b2, c2 = _ttrr_axis(fam, n, 2)
    return TtrrSet(n, a1, b1, c1, a2, b2, c2)


class DerivativeFamily(PolyVectorFamily):
    """The family Q_n = shift(n, axis) @ d/dx_axis P_{n+1}: the derivative
    vector without its last entry (axis 1) or its first entry (axis 2)."""

    def __init__(self, source: PolyVectorFamily, axis: int, up_to: Optional[int] = None):
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if up_to is None:
            up_to = source.max_n - 1
        if up_to + 1 > source.max_n:
            raise ValueError("source family too short")
        vectors = [
            PolyVector(source.vector(n + 1).diff(axis).entries[axis - 1:n + axis])
            for n in range(up_to + 1)
        ]
        super().__init__(vectors)
        self.source = source
        self.axis = axis


def derivative_ttrr(qfam: DerivativeFamily, n: int) -> QTtrr:
    """Unique recurrence of the derivative family along its own axis,
    read off the Q family's expansion matrices."""
    a, b, c = _ttrr_axis(qfam, n, qfam.axis)
    return QTtrr(n, qfam.axis, a, b, c)


def phi_coefficients(phi: BivariatePoly):
    """Coefficients (quad_x2, quad_xy, quad_y2, lin_x, lin_y, const) of a
    weight-shift factor; the structure relations need it quadratic."""
    if phi.degree() > 2:
        raise PhiDegreeTooHigh(f"structure relations need deg(phi) <= 2, got {phi.degree()}")
    return (phi.coefficient(2, 0), phi.coefficient(1, 1), phi.coefficient(0, 2),
            phi.coefficient(1, 0), phi.coefficient(0, 1), phi.coefficient(0, 0))


def _structure_axis(fam: PolyVectorFamily, phi: BivariatePoly, n: int, j: int):
    if n < 1:
        raise ValueError("structure relations start at n = 1")
    phi_coefficients(phi)  # degree gate
    return _match(fam.vector(n).diff(j).scale(phi), fam, n + 1)


def structure_matrices(fam: PolyVectorFamily, phi1: BivariatePoly,
                       phi2: BivariatePoly, n: int) -> StructureSet:
    """W, S, T for both axes by coefficient matching (valid for any
    orthogonal family, n >= 1; family needed through degree n+1)."""
    w1, s1, t1 = _structure_axis(fam, phi1, n, 1)
    w2, s2, t2 = _structure_axis(fam, phi2, n, 2)
    return StructureSet(n, w1, s1, t1, w2, s2, t2)


def monic_structure_matrices(pde: HypergeometricPDE, phi1: BivariatePoly,
                             phi2: BivariatePoly, n: int) -> StructureSet:
    """Closed-form W, S, T for the monic family (valid for n >= 3), built
    from the equation coefficients alone."""
    if n < 3:
        raise ValueError("closed-form structure relations need n >= 3")
    gn1, gn2 = subleading_matrices(pde, n)
    gp1, gp2 = subleading_matrices(pde, n + 1)
    out = {}
    for j, phi in ((1, phi1), (2, phi2)):
        qx2, qxy, qy2, lx, ly, cst = phi_coefficients(phi)
        e_n = derivative_matrix(n, j)
        e_n1 = derivative_matrix(n - 1, j)
        e_n2 = derivative_matrix(n - 2, j)

        def quad(m: int) -> RationalMatrix:
            # qx2 * x^2 + qxy * xy + qy2 * y^2 acting from degree m to m+2:
            # x^2, xy and y^2 times xvec(m) sit at offsets 0, 1, 2 of xvec(m+2)
            band = {0: qx2, 1: qxy, 2: qy2}
            return RationalMatrix.from_function(
                m + 1, m + 3, lambda i, k: band.get(k - i, 0))

        def lin(m: int) -> RationalMatrix:
            band = {0: lx, 1: ly}
            return RationalMatrix.from_function(
                m + 1, m + 2, lambda i, k: band.get(k - i, 0))

        w = e_n @ quad(n - 1)
        s = e_n @ lin(n - 1) - w @ gp1 + gn1 @ (e_n1 @ quad(n - 2))
        t = (cst * e_n + gn1 @ (e_n1 @ lin(n - 2)) - w @ gp2 - s @ gn1
             + gn2 @ (e_n2 @ quad(n - 3)))
        out[j] = (w, s, t)
    return StructureSet(n, *out[1], *out[2])


def derivative_representation(fam: PolyVectorFamily, n: int, axis: int,
                              qfam: Optional[DerivativeFamily] = None) -> DerivRep:
    """General route (any orthogonal family, n >= 2): match coefficients of
    P_n against the Q family, whose leading matrices are invertible; this
    compact triple is unique.  The wide triple follows by composing with the
    shift matrix, since Q_k is by definition shift @ dP_{k+1}.

    (A construction via recurrence differences against a lifted derivative
    recurrence is only valid when the family's edge entries are univariate,
    which holds for monic families but not in general; see ERRATA.md.)
    """
    if n < 2:
        raise ValueError("derivative representation starts at n = 2")
    if qfam is None:
        qfam = DerivativeFamily(fam, axis, n)
    return DerivRep(n, axis, *_match(fam.vector(n), qfam, n))


def monic_derivative_representation(pde: HypergeometricPDE, n: int, axis: int) -> DerivRep:
    """Closed-form route for the monic family, n >= 2.  The compact leading
    matrix shift @ derivative_matrix is diagonal with entries n+1-i (axis 1)
    or i+1 (axis 2), hence always invertible."""
    if n < 2:
        raise ValueError("derivative representation starts at n = 2")

    def v_compact(m: int) -> RationalMatrix:
        # the inverse of that diagonal at degree m, entry by entry
        diag = [m + 1 - i if axis == 1 else i + 1 for i in range(m + 1)]
        return RationalMatrix.from_function(
            m + 1, m + 1, lambda i, k: Fraction(1, diag[i]) if i == k else 0)

    gn1, gn2 = subleading_matrices(pde, n)
    gp1, gp2 = subleading_matrices(pde, n + 1)
    vq = v_compact(n)
    yq = (gn1 - vq @ shift_matrix(n, axis) @ gp1 @ derivative_matrix(n, axis)) @ v_compact(n - 1)
    zq = (gn2
          - vq @ shift_matrix(n, axis) @ gp2 @ derivative_matrix(n - 1, axis)
          - yq @ shift_matrix(n - 1, axis) @ gn1 @ derivative_matrix(n - 1, axis)
          ) @ v_compact(n - 2)
    return DerivRep(n, axis, vq, yq, zq)


class Relations:
    """Every general relation of one family through degree big_n, solved
    once; the family must reach degree big_n + 1.  ttrr[n] for n <= big_n,
    structure[n] for 1 <= n <= big_n and deriv[n, axis] for 2 <= n <= big_n.
    ``cases`` lists the matching weight-factor cases; when there is none, or
    the first pair is not quadratic, ``structure`` is empty and ``skipped``
    says why."""

    def __init__(self, fam: PolyVectorFamily, pde: HypergeometricPDE, big_n: int):
        self.fam = fam
        self.qfams = {j: DerivativeFamily(fam, j) for j in (1, 2)}
        self.ttrr: List[TtrrSet] = [general_ttrr(fam, n) for n in range(big_n + 1)]
        self.cases: List[PhiCase] = []
        self.structure: Dict[int, StructureSet] = {}
        self.skipped: Optional[str] = None
        try:
            self.cases = classify_phi(pde)
            phi1, phi2 = self.cases[0].phi10, self.cases[0].phi01
            # the degree gate raises at n = 1, before anything is stored
            for n in range(1, big_n + 1):
                self.structure[n] = structure_matrices(fam, phi1, phi2, n)
        except (NoCaseMatches, PhiDegreeTooHigh) as ex:
            self.skipped = f"skipped: {ex}"
        self.deriv: Dict[Tuple[int, int], DerivRep] = {
            (n, j): derivative_representation(fam, n, j, self.qfams[j])
            for n in range(2, big_n + 1) for j in (1, 2)}

    def matrices(self, n: int, compact: bool = False) -> Dict[str, RationalMatrix]:
        """Every matrix solved at degree n under its printed name: A, B
        (and C from n = 1) per axis, then W, S, T per axis when the
        structure relations were solved, then V, Y, Z per axis from n = 2,
        in the wide form or, with ``compact``, the compact form."""
        t = self.ttrr[n]
        out = {"A1": t.a1, "B1": t.b1, "A2": t.a2, "B2": t.b2}
        if n >= 1:
            out.update(C1=t.c1, C2=t.c2)
        if n in self.structure:
            st = self.structure[n]
            out.update(W1=st.w1, S1=st.s1, T1=st.t1, W2=st.w2, S2=st.s2, T2=st.t2)
        if n >= 2:
            for j in (1, 2):
                dr = self.deriv[n, j]
                out[f"V{j}"], out[f"Y{j}"], out[f"Z{j}"] = (
                    (dr.v_compact, dr.y_compact, dr.z_compact) if compact
                    else (dr.v, dr.y, dr.z))
        return out
