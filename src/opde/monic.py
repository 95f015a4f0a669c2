"""Construction of the monic vector polynomial family of an admissible equation.

Two fully independent routes are provided and cross-checked by the test
suite:

  * ``build_monic``: the production route.  Recurrence coefficients B_n, C_n
    come from closed-form entry tables in the equation coefficients
    (``subleading_matrices`` / ``monic_ttrr``), and the vectors are produced
    by the joint recursive formula.  The generalized inverse of the stacked
    shift matrices is not needed: the x-recursion fixes entries 0..n of
    P_{n+1}, the y-recursion entries 1..n+1, and the overlap is checked.

  * ``solve_monic``: the oracle route.  The monic ansatz is substituted into
    the equation and all expansion matrices are solved for degree by degree,
    using nothing but symbolic differentiation and exact linear algebra.

Entry tables are written 1-based in the classical references; this module is
the single place where they are translated to 0-based indexing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (InconsistentRecursion, NotAdmissible, NotSelfAdjoint,
                     SingularMatrix)
from .matrix import RationalMatrix
from .pde import (HypergeometricPDE, apply_operator, check_admissible,
                  derived_pde, is_potentially_self_adjoint)
from .poly import X, Y, BivariatePoly
from .vectors import (PolyVector, PolyVectorFamily, combine, expansion_matrices,
                      monomial_vector, shift_matrix)


def _require_varpi(pde: HypergeometricPDE, k: int) -> Fraction:
    v = pde.varpi(k)
    if v == 0:
        raise NotAdmissible(k)
    return v


@lru_cache(maxsize=None)
def subleading_matrices(pde: HypergeometricPDE, n: int
                        ) -> Tuple[RationalMatrix, Optional[RationalMatrix]]:
    """Closed forms for the two subleading expansion matrices of the monic
    degree-n vector: the bidiagonal (n+1) x n coefficient of the degree-(n-1)
    monomials and, for n >= 2, the three-diagonal (n+1) x (n-1) coefficient of
    the degree-(n-2) monomials (absent at n = 1).
    """
    if n < 1:
        raise ValueError("subleading matrices start at n = 1")
    p = pde
    w1 = _require_varpi(p, 2 * n - 2)

    def dx(i: int) -> Fraction:  # x-type linear factor at row i
        return (n - i - 1) * p.b1 + 2 * i * p.c3 + p.f1

    def dy(i: int) -> Fraction:  # y-type linear factor at row i
        return (i - 1) * p.b2 + 2 * (n - i) * p.b3 + p.f2

    g1 = RationalMatrix.zeros(n + 1, n).tolist()
    for i in range(n):
        g1[i][i] = (n - i) * dx(i) / w1
    for i in range(1, n + 1):
        g1[i][i - 1] = i * dy(i) / w1
    gnm1 = RationalMatrix(g1)

    if n == 1:
        return gnm1, None

    w2 = _require_varpi(p, 2 * n - 3)
    den = 2 * w1 * w2
    g2 = RationalMatrix.zeros(n + 1, n - 1).tolist()
    for i in range(n - 1):
        g2[i][i] = ((n - i) * (n - i - 1)
                    * (w1 * p.c1 + dx(i) * (dx(i) - p.b1))) / den
    for i in range(1, n):
        # cross term: both one-step paths through the degree-(n-1) layer
        mixed = (2 * p.d3 * w1
                 + dx(i) * ((i - 1) * p.b2 + 2 * (n - 1 - i) * p.b3 + p.f2)
                 + dy(i) * ((n - 1 - i) * p.b1 + 2 * (i - 1) * p.c3 + p.f1))
        g2[i][i - 1] = i * (n - i) * mixed / den
    for i in range(2, n + 1):
        g2[i][i - 2] = (i * (i - 1)
                        * (w1 * p.c2 + dy(i) * (dy(i) - p.b2))) / den
    return gnm1, RationalMatrix(g2)


class TtrrSet(NamedTuple):
    """Recurrence matrices of x_j * P_n = A P_{n+1} + B P_n + C P_{n-1} on
    both axes; C is absent at n = 0."""

    n: int
    a1: RationalMatrix
    b1: RationalMatrix
    c1: Optional[RationalMatrix]
    a2: RationalMatrix
    b2: RationalMatrix
    c2: Optional[RationalMatrix]

    def axis(self, j: int):
        if j == 1:
            return self.a1, self.b1, self.c1
        if j == 2:
            return self.a2, self.b2, self.c2
        raise ValueError("axis must be 1 or 2")


def monic_ttrr(pde: HypergeometricPDE, n: int) -> TtrrSet:
    """Closed-form recurrence matrices of the monic family; A is the shift
    matrix."""
    check_admissible(pde, n)
    p = pde
    a1, a2 = shift_matrix(n, 1), shift_matrix(n, 2)
    if n == 0:
        b1 = RationalMatrix([[-p.f1 / p.e]])
        b2 = RationalMatrix([[-p.f2 / p.e]])
        return TtrrSet(0, a1, b1, None, a2, b2, None)

    gn1, gn2 = subleading_matrices(pde, n)
    gp1, gp2 = subleading_matrices(pde, n + 1)
    b1 = gn1 @ shift_matrix(n - 1, 1) - a1 @ gp1
    b2 = gn1 @ shift_matrix(n - 1, 2) - a2 @ gp1

    if n == 1:
        den = p.e**2 * (p.a + p.e)
        if den == 0:
            raise NotAdmissible(0 if p.e == 0 else 1)
        mixed = p.b3 * p.e * p.f1 + p.c3 * p.e * p.f2 - p.a * p.f1 * p.f2
        c1 = RationalMatrix.column([
            (-p.c1 * p.e**2 + p.f1 * (p.b1 * p.e - p.a * p.f1)) / den,
            (-p.d3 * p.e**2 + mixed) / den,
        ])
        c2 = RationalMatrix.column([
            (-p.d3 * p.e**2 + mixed) / den,
            (-p.c2 * p.e**2 + p.f2 * (p.b2 * p.e - p.a * p.f2)) / den,
        ])
        return TtrrSet(1, a1, b1, c1, a2, b2, c2)

    assert gn2 is not None and gp2 is not None
    c1 = gn2 @ shift_matrix(n - 2, 1) - a1 @ gp2 - b1 @ gn1
    c2 = gn2 @ shift_matrix(n - 2, 2) - a2 @ gp2 - b2 @ gn1
    return TtrrSet(n, a1, b1, c1, a2, b2, c2)


class MonicFamily(PolyVectorFamily):
    """Monic vector polynomial family of a fixed equation, degrees 0..N."""

    def __init__(self, pde: HypergeometricPDE, vectors):
        super().__init__(vectors)
        self.pde = pde


def build_monic(pde: HypergeometricPDE, big_n: int) -> MonicFamily:
    """Monic family of degrees 0..N via the joint recursion, seeded by the
    closed-form recurrence matrices.

    The x- and y-recursions give L_{n,1} P_{n+1} and L_{n,2} P_{n+1}; as the
    shift matrices only select entries, P_{n+1} is read off directly and the
    n entries both recursions determine are checked for agreement
    (InconsistentRecursion otherwise)."""
    check_admissible(pde, big_n)
    if not is_potentially_self_adjoint(pde):
        raise NotSelfAdjoint("no integrating-factor weight exists")
    vectors: List[PolyVector] = [PolyVector([BivariatePoly.const(1)])]
    for n in range(big_n):
        t = monic_ttrr(pde, n)
        cur = vectors[n]
        x_known, y_known = [(t.b1, cur)], [(t.b2, cur)]
        if n >= 1:
            x_known.append((t.c1, vectors[n - 1]))
            y_known.append((t.c2, vectors[n - 1]))
        top = cur.scale(X) - combine(x_known)
        bot = cur.scale(Y) - combine(y_known)
        if bot.entries[:n] != top.entries[1:]:
            raise InconsistentRecursion(n + 1)
        vectors.append(PolyVector(top.entries + bot.entries[n:]))
    return MonicFamily(pde, vectors)


def _operator_expansions(pde: HypergeometricPDE, k: int
                         ) -> List[RationalMatrix]:
    """Expansion matrices of the bare operator applied to the k-th monomial
    vector (the derived equation at r = s = n = 0 has mu = 0)."""
    eq = derived_pde(pde, 0, 0, 0)
    image = PolyVector([apply_operator(eq, p) for p in monomial_vector(k)])
    return expansion_matrices(image, k)


def solve_monic(pde: HypergeometricPDE, big_n: int) -> MonicFamily:
    """Oracle route: substitute the monic ansatz into the equation and solve
    for every expansion matrix, degree by degree from the top down."""
    check_admissible(pde, big_n)
    op_cache: Dict[int, List[RationalMatrix]] = {
        k: _operator_expansions(pde, k) for k in range(big_n + 1)
    }
    vectors: List[PolyVector] = []
    for n in range(big_n + 1):
        lam = pde.eigenvalue(n)
        gs: Dict[int, RationalMatrix] = {n: RationalMatrix.identity(n + 1)}
        for j in range(n - 1, -1, -1):
            # coefficient of the degree-j monomial vector must vanish
            acc = RationalMatrix.zeros(n + 1, j + 1)
            for k in (j + 1, j + 2):
                if k <= n:
                    acc = acc + gs[k] @ op_cache[k][k - j]
            pivot = op_cache[j][0] + lam * RationalMatrix.identity(j + 1)
            try:
                gs[j] = -acc @ pivot.inverse()
            except SingularMatrix:
                # the pivot is (lam_n - lam_j) I, which vanishes exactly when
                # the gap index n + j - 1 is an admissibility root
                raise NotAdmissible(n + j - 1) from None
        vectors.append(combine([(g, monomial_vector(k)) for k, g in gs.items()]))
    return MonicFamily(pde, vectors)


def pde_residual(fam: MonicFamily, n: int) -> PolyVector:
    """Entrywise D P_n + lambda_n P_n; the contract is the zero vector."""
    eq = derived_pde(fam.pde, 0, 0, n)
    return PolyVector([apply_operator(eq, p) for p in fam.vector(n)])
