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

Each relation is one coefficient match, ``vectors.peel``: the top three
monomial layers of the left-hand side, peeled off against the family's
expansion matrices.  The general routes take those layers from the family's
cached ones wherever they can, and divide by the family's cached leading
inverses (none for a monic family):

  * x_j P_n: its layer of degree n+1-i is G_{n,n-i} L_{n-i,j}, the cached
    layer with a zero column added (``vectors.times_shift``)
  * phi_j dP_n/dx_j: expanded (``_match``), but only from the terms of P_n
    of degree n-2 and up, the only ones that reach its top three layers
  * P_n against the Q family: P_n's own layers, and the Q family's read off
    P_{n+1}'s as shift(n, j) G_{n+1,k+1} E_{k+1,j}, an edge row dropped and
    the columns scaled (``_q_layer``)

The monic closed forms (``monic.monic_ttrr``, ``monic_structure_matrices``
from n >= 1 and ``monic_derivative_representation`` from n >= 2) write those
layers from the equation coefficients, through ``monic.monic_layers``.

The derivative representation is produced in two layouts: the wide form (V,
Y, Z) acting on the raw derivative vectors, and the compact form acting on
the Q vectors.  The compact form is the unique one and is what closed-form
entry tables list; the wide form follows by composing with shift matrices.

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
from .monic import TtrrSet, monic_layers
from .pde import HypergeometricPDE
from .poly import BivariatePoly
from .vectors import (PolyVector, PolyVectorFamily, derivative_matrix,
                      expansion_layers, peel, times_shift)
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
        return times_shift(self.v_compact, self.axis)

    @property
    def y(self) -> RationalMatrix:
        return times_shift(self.y_compact, self.axis)

    @property
    def z(self) -> RationalMatrix:
        return times_shift(self.z_compact, self.axis)


def _match(lhs: PolyVector, fam: PolyVectorFamily, top: int) -> _Triple:
    """The X_i of lhs = X_0 P_top + X_1 P_{top-1} + X_2 P_{top-2}, peeled off
    lhs's top three monomial layers; terms below degree 0 are None."""
    return peel(expansion_layers(lhs, top, 3), fam.G, top, fam.leading_inverse)


def _ttrr_axis(fam: PolyVectorFamily, n: int, j: int) -> _Triple:
    """x_j v_n = sum_k G_{n,k} L_{k,j} xvec(k+1): its layer of degree n+1-i
    is G_{n,n-i} times the shift, zero below degree 0."""
    layers = [times_shift(fam.G(n, k), j) if k >= 0 else None
              for k in (n, n - 1, n - 2)]
    return peel(layers, fam.G, n + 1, fam.leading_inverse)


def general_ttrr(fam: PolyVectorFamily, n: int) -> TtrrSet:
    """Recurrence matrices of an orthogonal family from its expansion
    matrices; requires the family through degree n+1."""
    a1, b1, c1 = _ttrr_axis(fam, n, 1)
    a2, b2, c2 = _ttrr_axis(fam, n, 2)
    return TtrrSet(n, a1, b1, c1, a2, b2, c2)


def _q_layer(m: RationalMatrix, axis: int) -> RationalMatrix:
    """shift(n, axis) @ m @ derivative_matrix(k + 1, axis) for an
    (n+2) x (k+2) matrix m, without the products: the edge row dropped and
    each column of d/dx_axis xvec(k+1) taken with its factor."""
    num, den = m.as_integers()
    k = m.ncols - 2
    if axis == 1:
        rows = [[r[c] * (k + 1 - c) for c in range(k + 1)] for r in num[:-1]]
    else:
        rows = [[r[c + 1] * (c + 1) for c in range(k + 1)] for r in num[1:]]
    return RationalMatrix.from_integers(rows, den)


class DerivativeFamily(PolyVectorFamily):
    """The family Q_n = shift(n, axis) @ d/dx_axis P_{n+1}: the derivative
    vector without its last entry (axis 1) or its first entry (axis 2).

    Its layers are read off the source's cached ones,
    G^Q_{n,k} = shift(n, axis) G_{n+1,k+1} E_{k+1,axis}, and Q_n itself is
    formed on the first call to ``vector(n)``."""

    def __init__(self, source: PolyVectorFamily, axis: int, up_to: Optional[int] = None):
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if up_to is None:
            up_to = source.max_n - 1
        if up_to + 1 > source.max_n:
            raise ValueError("source family too short")
        # no vectors to validate: each is formed on demand from the source's
        self._gcache: Dict[int, List[RationalMatrix]] = {}
        self._icache: Dict[int, Optional[RationalMatrix]] = {}
        self._qcache: Dict[int, PolyVector] = {}
        self._top = up_to
        self.source = source
        self.axis = axis

    @property
    def max_n(self) -> int:
        return self._top

    def vector(self, n: int) -> PolyVector:
        if n not in self._qcache:
            if not 0 <= n <= self._top:
                raise IndexError(f"degree {n} out of range")
            d = self.source.vector(n + 1).diff(self.axis)
            self._qcache[n] = PolyVector(d.entries[self.axis - 1:n + self.axis])
        return self._qcache[n]

    def _layers(self, n: int, count: int) -> List[RationalMatrix]:
        return [_q_layer(self.source.G(n + 1, k + 1), self.axis)
                for k in range(n, max(n - count, -1), -1)]


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


def _top_terms(p: BivariatePoly, low: int) -> BivariatePoly:
    """The terms of p of total degree at least ``low``."""
    terms, den = p.as_integers()
    return BivariatePoly.from_integers(
        {e: c for e, c in terms.items() if e[0] + e[1] >= low}, den)


def _structure_axis(fam: PolyVectorFamily, phi: BivariatePoly, n: int, j: int):
    if n < 1:
        raise ValueError("structure relations start at n = 1")
    phi_coefficients(phi)  # degree gate
    # with phi at most quadratic, the top three layers of phi d_j v_n come
    # from the terms of v_n of degree n - 2 and up
    top = PolyVector([_top_terms(p, n - 2) for p in fam.vector(n)])
    return _match(top.diff(j).scale(phi), fam, n + 1)


def structure_matrices(fam: PolyVectorFamily, phi1: BivariatePoly,
                       phi2: BivariatePoly, n: int) -> StructureSet:
    """W, S, T for both axes by coefficient matching (valid for any
    orthogonal family, n >= 1; family needed through degree n+1)."""
    w1, s1, t1 = _structure_axis(fam, phi1, n, 1)
    w2, s2, t2 = _structure_axis(fam, phi2, n, 2)
    return StructureSet(n, w1, s1, t1, w2, s2, t2)


def _form_matrix(coeffs: Tuple, m: int) -> RationalMatrix:
    """The homogeneous form sum_t coeffs[t] x^(d-t) y^t times xvec(m), over
    xvec(m+d): x^(d-t) y^t xvec(m) sits at offset t."""
    d = len(coeffs) - 1
    return RationalMatrix.from_function(
        m + 1, m + d + 1, lambda i, k: coeffs[k - i] if 0 <= k - i <= d else 0)


def monic_structure_matrices(pde: HypergeometricPDE, phi1: BivariatePoly,
                             phi2: BivariatePoly, n: int) -> StructureSet:
    """Closed-form W, S, T for the monic family (n >= 1), built from the
    equation coefficients alone: the layers of phi_j dP_n/dx_j, peeled
    against the monic layers."""
    if n < 1:
        raise ValueError("structure relations start at n = 1")
    g = monic_layers(pde, n, n + 1)
    out = []
    for j, phi in ((1, phi1), (2, phi2)):
        c = phi_coefficients(phi)
        # phi dP_n/dx_j = sum_k G_{n,k} E_{k,j} phi xvec(k-1): phi's degree-d
        # part carries term k to layer n+2-k-d; a zero constant is left out
        layers = []
        for i in range(3):
            acc = None
            for d, form in ((2, c[:3]), (1, c[3:5]), (0, c[5:])):
                k = n + 2 - i - d
                if 1 <= k <= n and (d or form[0]):
                    term = derivative_matrix(k, j) @ _form_matrix(form, k - 1)
                    if k < n:
                        term = g(n, k) @ term
                    acc = term if acc is None else acc + term
            layers.append(acc)
        out.extend(peel(layers, g, n + 1))
    return StructureSet(n, *out)


def derivative_representation(fam: PolyVectorFamily, n: int, axis: int,
                              qfam: Optional[DerivativeFamily] = None) -> DerivRep:
    """General route (any orthogonal family, n >= 2): match coefficients of
    P_n against the Q family, whose leading matrices are invertible; this
    compact triple is unique.  The wide triple follows by composing with the
    shift matrix, since Q_k is by definition shift @ dP_{k+1}.  A shared
    ``qfam`` must be ``DerivativeFamily(fam, axis)``; ValueError otherwise.

    (A construction via recurrence differences against a lifted derivative
    recurrence is only valid when the family's edge entries are univariate,
    which holds for monic families but not in general; see ERRATA.md.)
    """
    if n < 2:
        raise ValueError("derivative representation starts at n = 2")
    if qfam is None:
        qfam = DerivativeFamily(fam, axis, n)
    elif qfam.axis != axis or qfam.source is not fam:
        raise ValueError(f"qfam must be the axis-{axis} derivative family of fam")
    layers = [fam.G(n, k) for k in (n, n - 1, n - 2)]
    return DerivRep(n, axis, *peel(layers, qfam.G, n, qfam.leading_inverse))


def monic_derivative_representation(pde: HypergeometricPDE, n: int, axis: int) -> DerivRep:
    """Closed-form route for the monic family, n >= 2: P_n's layers peeled
    against the Q family's layers shift(k) G_{k+1,i+1} E_{i+1}, whose leading
    one is diagonal with entries k+1-i (axis 1) or i+1 (axis 2)."""
    if n < 2:
        raise ValueError("derivative representation starts at n = 2")
    g = monic_layers(pde, n, n + 1)

    def gq(k: int, i: int) -> RationalMatrix:
        return _q_layer(g(k + 1, i + 1), axis)

    def inverse(k: int) -> RationalMatrix:  # of that diagonal, entry by entry
        diag = [k + 1 - i if axis == 1 else i + 1 for i in range(k + 1)]
        return RationalMatrix.from_function(
            k + 1, k + 1, lambda i, c: Fraction(1, diag[i]) if i == c else 0)

    return DerivRep(n, axis, *peel([g(n, k) for k in (n, n - 1, n - 2)], gq, n, inverse))


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
