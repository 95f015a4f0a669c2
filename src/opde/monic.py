"""Construction of the monic vector polynomial family of an admissible equation.

Two fully independent routes are provided and cross-checked by the test
suite:

  * ``build_monic``: the production route.  ``monic_ttrr`` runs the general
    recurrence route (``general_ttrr``, shared with ``relations``) on the
    equation's closed-form layers, ``monic_layers(pde)``: the identity and
    the two subleading matrices of every degree, read off the equation's
    coefficients.  That ``MonicLayers`` family is built once per equation
    and caches each degree's layers once solved; it is a
    ``PolyVectorFamily`` without vectors, so every relation route runs on it
    as on a built family, its derivative families included.  The vectors
    are produced by the joint recursive formula,
    x_j P_n - B P_n - C P_{n-1}, one ``vectors.combine`` per axis with the
    identity acting on the shifted P_n.  The generalized inverse of the
    stacked shift matrices is not needed: the x-recursion fixes entries 0..n
    of P_{n+1}, the y-recursion entries 1..n+1, and the overlap is checked.

  * ``solve_monic``: the oracle route.  The monic ansatz is substituted into
    the equation and all expansion matrices are solved for degree by degree,
    using nothing but symbolic differentiation and exact linear algebra.

Entry tables are written 1-based in the classical references; this module is
the single place where they are translated to 0-based indexing.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import InconsistentRecursion, NotAdmissible, SingularMatrix
from .matrix import RationalMatrix
from .pde import HypergeometricPDE, apply_operator, check_admissible, check_class
from .poly import BivariatePoly
from .vectors import (PolyVector, PolyVectorFamily, combine, expansion_matrices,
                      monomial_vector, peel, times_shift)


def subleading_matrices(pde: HypergeometricPDE, n: int
                        ) -> Tuple[RationalMatrix, Optional[RationalMatrix]]:
    """Closed forms for the two subleading expansion matrices of the monic
    degree-n vector: the bidiagonal (n+1) x n coefficient of the degree-(n-1)
    monomials and, for n >= 2, the three-diagonal (n+1) x (n-1) coefficient of
    the degree-(n-2) monomials (absent at n = 1).

    Computed on the coefficients times their common denominator D: the
    first matrix is over w1 = varpi(2n - 2), the second over 2 w1 w2 with
    w2 = varpi(2n - 3), and D cancels from both.
    """
    if n < 1:
        raise ValueError("subleading matrices start at n = 1")
    den = lcm(*(c.denominator for c in pde))
    a, b1, c1, b2, c2, b3, c3, d3, e, f1, f2 = (c.numerator * (den // c.denominator)
                                                for c in pde)
    w1 = a * (2 * n - 2) + e
    if w1 == 0:
        raise NotAdmissible(2 * n - 2)

    def dx(i: int) -> int:  # x-type linear factor at row i
        return (n - i - 1) * b1 + 2 * i * c3 + f1

    def dy(i: int) -> int:  # y-type linear factor at row i
        return (i - 1) * b2 + 2 * (n - i) * b3 + f2

    g1 = [[0] * n for _ in range(n + 1)]
    for i in range(n):
        g1[i][i] = (n - i) * dx(i)
    for i in range(1, n + 1):
        g1[i][i - 1] = i * dy(i)
    gnm1 = RationalMatrix.from_integers(g1, w1)

    if n == 1:
        return gnm1, None

    w2 = a * (2 * n - 3) + e
    if w2 == 0:
        raise NotAdmissible(2 * n - 3)
    g2 = [[0] * (n - 1) for _ in range(n + 1)]
    for i in range(n - 1):
        g2[i][i] = (n - i) * (n - i - 1) * (w1 * c1 + dx(i) * (dx(i) - b1))
    for i in range(1, n):
        # cross term: both one-step paths through the degree-(n-1) layer
        mixed = (2 * d3 * w1
                 + dx(i) * ((i - 1) * b2 + 2 * (n - 1 - i) * b3 + f2)
                 + dy(i) * ((n - 1 - i) * b1 + 2 * (i - 1) * c3 + f1))
        g2[i][i - 1] = i * (n - i) * mixed
    for i in range(2, n + 1):
        g2[i][i - 2] = i * (i - 1) * (w1 * c2 + dy(i) * (dy(i) - b2))
    return gnm1, RationalMatrix.from_integers(g2, 2 * w1 * w2)


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


_Triple = Tuple[RationalMatrix, RationalMatrix, Optional[RationalMatrix]]


class MonicLayers(PolyVectorFamily):
    """The top three layers of the monic family at every degree, read off
    the equation: G_{n,n} = I and the two subleading matrices.  It holds no
    vectors, and its leading inverse is None without reading a layer.  A
    degree whose closed forms raise is not cached, so asking again raises
    again."""

    def __init__(self, pde: HypergeometricPDE):
        super().__init__([])
        self.max_n = inf
        self.pde = pde

    def _layers(self, n: int) -> List[RationalMatrix]:
        sub = subleading_matrices(self.pde, n) if n else ()
        return [RationalMatrix.identity(n + 1), *sub][:n + 1]

    def leading_inverse(self, k: int) -> None:
        return None


@lru_cache(maxsize=None)
def monic_layers(pde: HypergeometricPDE) -> MonicLayers:
    """The equation's closed-form layer family, built once per equation, so
    every closed-form route shares its layers, Q families and inverses."""
    return MonicLayers(pde)


def _ttrr_axis(fam: PolyVectorFamily, n: int, j: int) -> _Triple:
    """x_j v_n = sum_k G_{n,k} L_{k,j} xvec(k+1): its layer of degree n+1-i
    is G_{n,n-i} times the shift, zero below degree 0."""
    layers = [times_shift(fam.G(n, k), j) if k >= 0 else None
              for k in (n, n - 1, n - 2)]
    return peel(layers, fam, n + 1)


def general_ttrr(fam: PolyVectorFamily, n: int) -> TtrrSet:
    """Recurrence matrices of an orthogonal family from its expansion
    matrices; requires the family through degree n+1."""
    return TtrrSet(n, *_ttrr_axis(fam, n, 1), *_ttrr_axis(fam, n, 2))


@lru_cache(maxsize=None)
def monic_ttrr(pde: HypergeometricPDE, n: int) -> TtrrSet:
    """Closed-form recurrence matrices of the monic family: the general
    route run on the closed-form layers, once per (pde, n), since both
    ``build_monic`` and the recurrence checks read them.  A is the shift
    matrix."""
    check_admissible(pde)
    return general_ttrr(monic_layers(pde), n)


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
    if big_n < 0:
        raise ValueError("degree bound must be nonnegative")
    check_class(pde)
    vectors: List[PolyVector] = [PolyVector([BivariatePoly.const(1)])]
    for n in range(big_n):
        t = monic_ttrr(pde, n)
        eye = RationalMatrix.identity(n + 1)
        rows = []
        for j, shift in ((1, (1, 0)), (2, (0, 1))):
            _, b, c = t.axis(j)
            pairs = [(eye, vectors[n], shift), (-b, vectors[n])]
            if c is not None:
                pairs.append((-c, vectors[n - 1]))
            rows.append(combine(pairs).entries)
        top, bot = rows
        if bot[:n] != top[1:]:
            raise InconsistentRecursion(n + 1)
        vectors.append(PolyVector(top + bot[n:]))
    return MonicFamily(pde, vectors)


def _operator_expansions(pde: HypergeometricPDE, k: int
                         ) -> List[RationalMatrix]:
    """Expansion matrices of the bare operator (lambda_0 = 0) applied to the
    k-th monomial vector."""
    image = PolyVector([apply_operator(pde, 0, p) for p in monomial_vector(k)])
    return expansion_matrices(image, k)


def solve_monic(pde: HypergeometricPDE, big_n: int) -> MonicFamily:
    """Oracle route: substitute the monic ansatz into the equation and solve
    for every expansion matrix, degree by degree from the top down."""
    if big_n < 0:
        raise ValueError("degree bound must be nonnegative")
    check_admissible(pde)
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
    return PolyVector([apply_operator(fam.pde, n, p) for p in fam.vector(n)])
