"""Polynomial column vectors in the graded monomial basis.

Position k of the degree-n monomial vector holds x^(n-k) * y^k, for
0 <= k <= n.  Every module in the package depends on this ordering and none
may redefine it.  The structural matrices built here are the bookkeeping
devices for that basis:

  * shift_matrix(n, axis): the 0/1 matrix L with  L @ xvec(n+1) == x_axis * xvec(n)
  * derivative_matrix(n, axis): the matrix E with  E @ xvec(n-1) == d/dx_axis xvec(n)
  * joint_left_inverse(n): the exact left inverse of the stacked shift matrices

Applied to a vector, L only selects entries 0..n (axis 1) or 1..n+1 (axis
2), so the vector routes (``build_monic``, ``DerivativeFamily``) slice instead
of multiplying; multiplied from the right, it only adds a zero column, which
``times_shift`` writes without a product.  No relation route multiplies by
either matrix: they write the layers directly, so the matrices remain as the
definitions the tests check those layers against; the joint left inverse is
a reference construction that no production route uses.

Both boundaries between matrices and polynomials stay on the integers:
``expansion_layers`` builds each G_{n,k} from the polynomials' int
numerators over the lcm of their denominators, and ``combine`` forms
sum_i M_i @ v_i as one integer accumulation per entry over the lcm of every
denominator involved, normalized once per entry.  A pair may shift its
vector's exponents, so the joint recursion's x_j P_n - B P_n - C P_{n-1} is
one ``combine`` with the identity on the shifted P_n.  ``apply_matrix`` is
the one-pair case; the relation right-hand sides, the joint recursion and
the oracle's assembly all go through ``combine``, the one kernel from
matrices to polynomials.

``peel`` is the one coefficient match behind every relation, against one
family's layers: each coefficient is one integer accumulation on the sparse
product kernel ``matrix.addmul``, and a leading inverse other than None (the
identity) is one more ``addmul``, which for a diagonal one scales columns.

``PolyVectorFamily`` is the one family contract: a degree bound ``max_n``,
set once (unbounded for the closed forms), and the top three expansion
matrices G_{n,n}, G_{n,n-1}, G_{n,n-2} of each degree, which are all the
relations read, cached as one list per degree; deeper layers are
``expansion_matrices(fam.vector(n), n)``.  A family of layers without
vectors overrides ``_layers``: ``DerivativeFamily`` reads them off its
source's, and ``monic.MonicLayers`` off the equation.  ``leading_inverse``
caches the inverse of each leading matrix G_{k,k} by one rule: a diagonal
G_{k,k} entry by entry (None for the identity, as in every monic family),
any other by Gauss-Jordan; the relation solves divide by the same few
inverses many times.  ``derivative_family`` builds each axis's Q
family once, so every relation read off it shares its layers and inverses.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DegreeOverflow, SingularLeading, SingularMatrix
from .matrix import RationalMatrix, addmul
from .poly import BivariatePoly, Exponent

def monomial_vector(n: int) -> "PolyVector":
    """The column vector (x^n, x^(n-1)y, ..., y^n)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return PolyVector([BivariatePoly.from_integers({(n - k, k): 1}) for k in range(n + 1)])


def shift_matrix(n: int, axis: int) -> RationalMatrix:
    """(n+1) x (n+2) selection matrix mapping the degree-(n+1) basis onto
    x * basis(n) (axis 1) or y * basis(n) (axis 2).

    Its product with a vector keeps entries 0..n (axis 1) or 1..n+1 (axis
    2); callers acting on polynomial vectors slice rather than multiply."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if axis == 1:
        return RationalMatrix.from_integers(
            [[int(k == i) for k in range(n + 2)] for i in range(n + 1)])
    if axis == 2:
        return RationalMatrix.from_integers(
            [[int(k == i + 1) for k in range(n + 2)] for i in range(n + 1)])
    raise ValueError("axis must be 1 or 2")


def times_shift(m: RationalMatrix, axis: int) -> RationalMatrix:
    """m @ shift_matrix(m.ncols - 1, axis), without the product: m with a
    zero column appended (axis 1) or prepended (axis 2)."""
    num, den = m.as_integers()
    if axis == 1:
        return RationalMatrix.from_integers([r + (0,) for r in num], den)
    if axis == 2:
        return RationalMatrix.from_integers([(0,) + r for r in num], den)
    raise ValueError("axis must be 1 or 2")


def derivative_matrix(n: int, axis: int) -> RationalMatrix:
    """(n+1) x n matrix E with d/dx_axis xvec(n) = E @ xvec(n-1).

    d/dx x^(n-k)y^k = (n-k) x^(n-k-1)y^k lands at position k of xvec(n-1),
    so axis 1 is diagonal with entries n-k and a zero last row; axis 2 is
    subdiagonal with entries 1..n and a zero first row.
    """
    if n < 1:
        raise ValueError("derivative_matrix needs n >= 1")
    if axis == 1:
        return RationalMatrix.from_integers(
            [[n - i if k == i else 0 for k in range(n)] for i in range(n + 1)])
    if axis == 2:
        return RationalMatrix.from_integers(
            [[i if k == i - 1 else 0 for k in range(n)] for i in range(n + 1)])
    raise ValueError("axis must be 1 or 2")


def joint_left_inverse(n: int) -> RationalMatrix:
    """(n+2) x (2n+2) generalized inverse D with D @ L_n == I, where L_n stacks
    the x shift over the y shift.

    The joint recursion's textbook form recovers P_{n+1} as D applied to the
    stacked x- and y-rows, which averages the entries both rows determine.
    ``build_monic`` instead reads P_{n+1} off the rows and checks that those
    entries agree; this function is kept as the reference for that identity."""
    ln = shift_matrix(n, 1).vstack(shift_matrix(n, 2))
    lt = ln.transpose()
    return (lt @ ln).inverse() @ lt


class PolyVector:
    """Immutable column vector of exact bivariate polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[BivariatePoly]):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("empty polynomial vector")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> BivariatePoly:
        return self.entries[k]

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "PolyVector") -> "PolyVector":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return PolyVector([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return PolyVector([a - b for a, b in zip(self, other)])

    def scale(self, p: BivariatePoly) -> "PolyVector":
        return PolyVector([p * q for q in self])

    def diff(self, axis: int) -> "PolyVector":
        return PolyVector([p.diff(axis) for p in self])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self)

    def max_degree(self):
        return max(p.degree() for p in self)

    def __repr__(self) -> str:
        return "PolyVector(" + ", ".join(str(p) for p in self) + ")"


def combine(pairs: Sequence[Tuple]) -> PolyVector:
    """sum_i M_i @ (x^di y^dj v_i) for matrices M_i with one row count.

    A pair is (M, v), or (M, v, (di, dj)) to multiply v's entries by the
    monomial x^di y^dj first.  Each entry is one integer accumulation of
    matrix numerators times polynomial numerators, over the lcm of every
    matrix-times-entry denominator, normalized once at the end."""
    if not pairs:
        raise ValueError("combine needs at least one (matrix, vector) pair")
    nrows = pairs[0][0].nrows
    parts = []
    for m, v, *shift in pairs:
        if m.ncols != len(v):
            raise ValueError(f"shape mismatch: {m.shape} @ vector of length {len(v)}")
        if m.nrows != nrows:
            raise ValueError(f"row-count mismatch: {m.nrows} rows against {nrows}")
        num, den = m.as_integers()
        forms = [(terms.items(), d) for terms, d in map(BivariatePoly.as_integers, v)]
        if shift:
            (di, dj), = shift
            forms = [([((i + di, j + dj), t) for (i, j), t in items], d) for items, d in forms]
        parts.append((num, [(den * d, items) for items, d in forms]))
    total = lcm(*(d for _, cols in parts for d, _ in cols))
    out = []
    for r in range(nrows):
        acc: Dict[Exponent, int] = {}
        for num, cols in parts:
            for c, (d, items) in zip(num[r], cols):
                if c:
                    c *= total // d
                    if not acc:  # the first nonzero term seeds the row
                        acc = {e: c * t for e, t in items}
                        get = acc.get
                        continue
                    for e, t in items:
                        acc[e] = get(e, 0) + c * t
        out.append(BivariatePoly.from_integers(acc, total))
    return PolyVector(out)


def apply_matrix(m: RationalMatrix, v: PolyVector) -> PolyVector:
    """Matrix-vector product of a rational matrix with a polynomial vector."""
    return combine([(m, v)])


def expansion_matrices(v: PolyVector, n: int) -> List[RationalMatrix]:
    """Expand v over the monomial vectors: v = sum_k G_k @ xvec(k).

    Returns [G_n, G_{n-1}, ..., G_0] where G_k has shape len(v) x (k+1).
    Raises DegreeOverflow if an entry of v has total degree above n.
    """
    return expansion_layers(v, n, n + 1)


def expansion_layers(v: PolyVector, n: int, count: int) -> List[RationalMatrix]:
    """The first ``count`` matrices of expansion_matrices(v, n), that is
    [G_n, ..., G_{n-count+1}] (fewer if n < count - 1); the degree check
    still covers all of v."""
    if v.max_degree() > n:
        raise DegreeOverflow(f"vector has degree {v.max_degree()} > {n}")
    forms = [p.as_integers() for p in v]
    den = lcm(*(d for _, d in forms))
    scaled = [(terms.get, den // d) for terms, d in forms]
    return [RationalMatrix.from_integers(
                [[get((k - c, c), 0) * s for c in range(k + 1)] for get, s in scaled], den)
            for k in range(n, max(n - count, -1), -1)]


def peel(layers: Sequence[Optional[RationalMatrix]], fam: "PolyVectorFamily",
         top: int) -> Tuple[Optional[RationalMatrix], ...]:
    """X_0, X_1, X_2 with lhs = sum_i X_i v_{top-i}, for the vectors
    v_m = sum_k G(m, k) xvec(k) of ``fam`` and H_i = layers[i] the
    coefficient of xvec(top-i) in lhs (None for zero, but not H_0):

        X_i = (H_i - sum_{k<i} X_k G(top-k, top-i)) G(top-i, top-i)^{-1},

    where ``fam.leading_inverse(m)`` gives G(m, m)^{-1}.  The bracket is one
    integer accumulation over the lcm of its denominators, one ``addmul``
    per term, and the inverse one more; None stands for the identity.
    Layers below degree 0 are ignored; terms past the last layer are None."""
    xs: List[RationalMatrix] = []
    nrows = layers[0].nrows
    for i, h in enumerate(layers[:top + 1]):
        m = top - i
        terms = [(x.as_integers(), fam.G(top - k, m).as_integers()) for k, x in enumerate(xs)]
        dens = [xd * gd for (_, xd), (_, gd) in terms]
        if h is None:
            total = lcm(*dens)
            acc = [[0] * (m + 1) for _ in range(nrows)]
        else:
            hnum, hden = h.as_integers()
            total = lcm(hden, *dens)
            s = total // hden
            acc = [[a * s for a in r] for r in hnum]
        for ((xnum, _), (gnum, _)), d in zip(terms, dens):
            addmul(acc, xnum, gnum, -(total // d))
        inv = fam.leading_inverse(m)
        if inv is not None:
            inum, iden = inv.as_integers()
            acc = addmul([[0] * (m + 1) for _ in range(nrows)], acc, inum)
            total *= iden
        xs.append(RationalMatrix.from_integers(acc, total))
    return tuple(xs) + (None,) * (3 - len(xs))


class PolyVectorFamily:
    """Vectors indexed by total degree, with cached monomial expansions.

    ``G`` caches the top three layers of a degree from ``_layers``, which a
    family of layers without vectors overrides after calling this
    constructor with no vectors and setting ``max_n``."""

    def __init__(self, vectors: Sequence[PolyVector]):
        self.vectors = list(vectors)
        for n, v in enumerate(self.vectors):
            if len(v) != n + 1:
                raise ValueError(f"vector at degree {n} has length {len(v)}")
            if v.max_degree() > n:
                raise DegreeOverflow(f"vector at degree {n} has degree {v.max_degree()}")
        self.max_n = len(self.vectors) - 1
        self._gcache: Dict[int, List[RationalMatrix]] = {}
        self._icache: Dict[int, Optional[RationalMatrix]] = {}
        self._qfams: Dict[int, DerivativeFamily] = {}

    def vector(self, n: int) -> PolyVector:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"degree {n} out of range")
        return self.vectors[n]

    def _layers(self, n: int) -> List[RationalMatrix]:
        """[G_{n,n}, G_{n,n-1}, G_{n,n-2}], fewer if n < 2."""
        return expansion_layers(self.vector(n), n, 3)

    def G(self, n: int, k: int) -> RationalMatrix:
        """Expansion matrix G_{n,k} of the degree-n vector, for the top
        three layers max(n - 2, 0) <= k <= n."""
        if not max(n - 2, 0) <= k <= n <= self.max_n:
            raise ValueError(f"G({n},{k}) out of range")
        if n not in self._gcache:
            self._gcache[n] = self._layers(n)
        return self._gcache[n][n - k]

    def leading_inverse(self, k: int) -> Optional[RationalMatrix]:
        """Inverse of the leading matrix G_{k,k}, computed once per degree.
        A diagonal G_{k,k} is inverted entry by entry, and is None when it is
        the identity, as in every monic family; any other G_{k,k} by
        Gauss-Jordan.  Raises SingularLeading when G_{k,k} is singular."""
        if k not in self._icache:
            lead = self.G(k, k)
            num, den = lead.as_integers()
            diag = [r[i] for i, r in enumerate(num)]
            if any(a for i, r in enumerate(num) for c, a in enumerate(r) if c != i):
                try:
                    inv = lead.inverse()
                except SingularMatrix:
                    raise SingularLeading(k) from None
            elif 0 in diag:
                raise SingularLeading(k)
            elif all(d == den for d in diag):
                inv = None
            else:
                top = lcm(*diag)
                inv = RationalMatrix.from_integers(
                    [[den * (top // d) if i == c else 0 for c in range(k + 1)]
                     for i, d in enumerate(diag)], top)
            self._icache[k] = inv
        return self._icache[k]

    def derivative_family(self, axis: int) -> "DerivativeFamily":
        """The family's Q family along ``axis``, built once per axis, so
        every relation read off it shares its layers and leading inverses."""
        if axis not in self._qfams:
            self._qfams[axis] = DerivativeFamily(self, axis)
        return self._qfams[axis]


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
    """The family Q_n = shift(n, axis) @ d/dx_axis P_{n+1} of degrees
    0..source.max_n - 1: the derivative vector without its last entry
    (axis 1) or its first entry (axis 2).

    Its layers are read off the source's cached ones,
    G^Q_{n,k} = shift(n, axis) G_{n+1,k+1} E_{k+1,axis}, and Q_n itself is
    formed on the first call to ``vector(n)``.  For a monic source G^Q_{k,k}
    is diagonal, with entries k+1-i (axis 1) or i+1 (axis 2)."""

    def __init__(self, source: PolyVectorFamily, axis: int):
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        super().__init__([])
        self.max_n = source.max_n - 1
        self.source = source
        self.axis = axis
        self._qcache: Dict[int, PolyVector] = {}

    def vector(self, n: int) -> PolyVector:
        if n not in self._qcache:
            if not 0 <= n <= self.max_n:
                raise IndexError(f"degree {n} out of range")
            d = self.source.vector(n + 1).diff(self.axis)
            self._qcache[n] = PolyVector(d.entries[self.axis - 1:n + self.axis])
        return self._qcache[n]

    def _layers(self, n: int) -> List[RationalMatrix]:
        return [_q_layer(self.source.G(n + 1, k + 1), self.axis)
                for k in range(n, max(n - 3, -1), -1)]
