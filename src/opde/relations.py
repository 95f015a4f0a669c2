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

Each relation has one layer route: the top three monomial layers of the
left-hand side, written from the family's layers G_{n,k} and peeled off
against them (``vectors.peel``), dividing by the family's cached leading
inverses (none where G_{k,k} is the identity):

  * x_j P_n: its layer of degree n+1-i is G_{n,n-i} L_{n-i,j}, the layer
    with a zero column added (``vectors.times_shift``; ``monic._ttrr_axis``)
  * phi_j dP_n/dx_j: its layer of degree n+1-i is sum_k G_{n,k} E_{k,j} Phi_d
    over the homogeneous parts phi_d of phi, k = n+2-i-d, where Phi_d is the
    banded matrix of phi_d times xvec(k-1); one integer accumulation per layer
  * P_n against the Q family: P_n's own layers, peeled against those of
    the family's Q family (``PolyVectorFamily.derivative_family``), which
    reads its layers off P_{n+1}'s; for a monic source its leading matrices
    are diagonal

Each route runs on any family under the one contract of
``vectors.PolyVectorFamily``: ``general_ttrr``, ``structure_matrices`` and
``derivative_representation`` read a built family's cached expansion, and
``monic.monic_ttrr``, ``monic_structure_matrices`` and
``monic_derivative_representation`` are the same routes run on the
equation's closed-form family, ``monic.monic_layers(pde)`` (the identity and
the two subleading matrices, read off the equation), built once per
equation.
``DerivativeFamily`` is defined beside its base in ``vectors`` and
re-exported here.

Every route returns what ``vectors.peel`` solves, the three matrices of one
axis in the order of the relation's right-hand side: (A, B, C), (W, S, T)
and (V, Y, Z).  The recurrence and structure routes return one triple per
axis, axis 1 first; ``derivative_ttrr`` and the derivative representation
return the triple of their one axis.  The derivative representation is in
its compact form, acting on Q_n, Q_{n-1}, Q_{n-2}: it is the unique one and
what closed-form entry tables list.  The wide form acting on the raw
derivative vectors is the compact one composed with the shift matrices;
``Relations.matrices`` forms it for printing.

``Relations`` is the relation table of one family through a degree bound:
it classifies the weight-shift factors once and solves every general
relation once, and ``Relations.matrices`` names the matrices of each
degree.  ``build`` emits this table and ``verify`` checks it, so the two
commands see the same matrices under the same names.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Optional, Tuple

from .errors import NoCaseMatches, PhiDegreeTooHigh
from .matrix import RationalMatrix
from .monic import _Triple, _ttrr_axis, general_ttrr, monic_layers
from .pde import HypergeometricPDE
from .poly import BivariatePoly
from .vectors import DerivativeFamily, PolyVectorFamily, peel, times_shift
from .weights import PhiCase, classify_phi


def derivative_ttrr(qfam: DerivativeFamily, n: int) -> _Triple:
    """Unique recurrence (A~, B~, C~) of the derivative family along its own
    axis, read off the Q family's expansion matrices."""
    return _ttrr_axis(qfam, n, qfam.axis)


def _structure_axis(fam: PolyVectorFamily, phi: BivariatePoly, n: int, j: int) -> _Triple:
    """phi d_j v_n = sum_k G_{n,k} E_{k,j} phi xvec(k-1): the degree-d part of
    phi carries term k to the layer of degree n+1-i, k = n+2-i-d.  Each layer
    is one integer accumulation: E_{k,j} times the form's banded matrix is
    that matrix with row s scaled by k-s (axis 1) or s (axis 2), shifted
    j-1 columns left."""
    if n < 1:
        raise ValueError("structure relations start at n = 1")
    if phi.degree() > 2:
        raise PhiDegreeTooHigh(f"structure relations need deg(phi) <= 2, got {phi.degree()}")
    terms, phi_den = phi.as_integers()
    forms = [[terms.get((d - t, t), 0) for t in range(d + 1)] for d in range(3)]
    layers = []
    for i in range(3):
        gs = {k: fam.G(n, k).as_integers() for k in range(max(n - i, 1), n + 1)}
        den = lcm(*(g_den for _, g_den in gs.values()))
        acc = [[0] * (n + 2 - i) for _ in range(n + 1)]
        for k, (num, g_den) in gs.items():
            form, scale = forms[n + 2 - i - k], den // g_den
            for out, row in zip(acc, num):
                for s, g in enumerate(row):
                    g *= scale * (k - s if j == 1 else s)
                    if g:
                        for c, a in enumerate(form, s + 1 - j):
                            out[c] += g * a
        layers.append(RationalMatrix.from_integers(acc, den * phi_den))
    return peel(layers, fam, n + 1)


def structure_matrices(fam: PolyVectorFamily, phi1: BivariatePoly,
                       phi2: BivariatePoly, n: int) -> Tuple[_Triple, _Triple]:
    """(W, S, T) on axis 1 and on axis 2 by coefficient matching (valid for
    any orthogonal family, n >= 1; family needed through degree n+1)."""
    return _structure_axis(fam, phi1, n, 1), _structure_axis(fam, phi2, n, 2)


def monic_structure_matrices(pde: HypergeometricPDE, phi1: BivariatePoly,
                             phi2: BivariatePoly, n: int) -> Tuple[_Triple, _Triple]:
    """Closed-form W, S, T for the monic family (n >= 1): the general route
    run on the closed-form layers."""
    return structure_matrices(monic_layers(pde), phi1, phi2, n)


def derivative_representation(fam: PolyVectorFamily, n: int, axis: int) -> _Triple:
    """Compact (V, Y, Z) by the general route (any orthogonal family,
    n >= 2): match coefficients of P_n against the family's Q family, whose
    leading matrices are invertible; this triple is unique.

    (A construction via recurrence differences against a lifted derivative
    recurrence is only valid when the family's edge entries are univariate,
    which holds for monic families but not in general; see ERRATA.md.)
    """
    if n < 2:
        raise ValueError("derivative representation starts at n = 2")
    qfam = fam.derivative_family(axis)
    layers = [fam.G(n, k) for k in (n, n - 1, n - 2)]
    return peel(layers, qfam, n)


def monic_derivative_representation(pde: HypergeometricPDE, n: int, axis: int) -> _Triple:
    """Closed-form route for the monic family, n >= 2: the general route run
    on the closed-form layers, whose Q family has diagonal leading matrices."""
    return derivative_representation(monic_layers(pde), n, axis)


class Relations:
    """Every general relation of one family through degree big_n, solved
    once; the family must reach degree big_n + 1.  ttrr[n] for n <= big_n,
    structure[n] for 1 <= n <= big_n and deriv[n, axis] for 2 <= n <= big_n.
    ``cases`` lists the matching weight-factor cases; when there is none, or
    the first pair is not quadratic, ``structure`` is empty and ``skipped``
    says why."""

    def __init__(self, fam: PolyVectorFamily, pde: HypergeometricPDE, big_n: int):
        self.fam = fam
        self.ttrr: List[Tuple[_Triple, _Triple]] = [
            general_ttrr(fam, n) for n in range(big_n + 1)]
        self.cases: List[PhiCase] = []
        self.structure: Dict[int, Tuple[_Triple, _Triple]] = {}
        self.skipped: Optional[str] = None
        try:
            self.cases = classify_phi(pde)
            phi1, phi2 = self.cases[0].phi10, self.cases[0].phi01
            # the degree gate raises at n = 1, before anything is stored
            for n in range(1, big_n + 1):
                self.structure[n] = structure_matrices(fam, phi1, phi2, n)
        except (NoCaseMatches, PhiDegreeTooHigh) as ex:
            self.skipped = f"skipped: {ex}"
        self.deriv: Dict[Tuple[int, int], _Triple] = {
            (n, j): derivative_representation(fam, n, j)
            for n in range(2, big_n + 1) for j in (1, 2)}

    def matrices(self, n: int, compact: bool = False) -> Dict[str, RationalMatrix]:
        """Every matrix solved at degree n under its printed name: A, B
        (and C from n = 1) per axis, then W, S, T per axis when the
        structure relations were solved, then V, Y, Z per axis from n = 2,
        in the wide form or, with ``compact``, the compact form.  The wide
        form acts on the raw derivatives: it is the compact one composed
        with the shift, since Q_k = shift(k, axis) @ dP_{k+1}/dx_axis."""
        (a1, b1, c1), (a2, b2, c2) = self.ttrr[n]
        out = {"A1": a1, "B1": b1, "A2": a2, "B2": b2}
        if n >= 1:
            out.update(C1=c1, C2=c2)
        if n in self.structure:
            for j, st in enumerate(self.structure[n], 1):
                out[f"W{j}"], out[f"S{j}"], out[f"T{j}"] = st
        if n >= 2:
            for j in (1, 2):
                dr = self.deriv[n, j]
                out[f"V{j}"], out[f"Y{j}"], out[f"Z{j}"] = (
                    dr if compact else (times_shift(m, j) for m in dr))
        return out
