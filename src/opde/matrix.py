"""Dense exact rational matrices.

A matrix is stored as integer numerator rows over one common denominator:
a tuple of tuples of ints and a positive int.

    [[1/2, 0], [-1, 2/3]]  →  (((3, 0), (-6, 4)), 6)

The form is canonical: the denominator and the numerators have no common
factor, and a zero matrix is over 1.  Sizes here are tiny (O(n) for
desk-scale degrees), so dense rows win over anything clever; every operation
is exact, runs on the integers and normalizes once per result, and the
values are immutable after construction.  ``rows``, ``row``, ``tolist`` and
``m[i, k]`` return Fractions in lowest terms.  The one concession to sparsity
is the one product kernel, ``addmul``, which skips zero entries on both
sides: most operands are 0/1 shift, bidiagonal derivative or banded
expansion matrices.  ``@`` and ``vectors.peel`` both run on it.  Inverse,
determinant, rank and nullspace all read their answer off one fraction-free
Gauss-Jordan reduction (``_reduce``), so there is no rank threshold anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, List, Sequence, Tuple

from .errors import SingularMatrix
from .poly import Scalar, rat

IntRows = Tuple[Tuple[int, ...], ...]


class RationalMatrix:
    """Immutable exact matrix: int numerator rows ``_num`` over the common
    denominator ``_den`` > 0, with gcd(_den, *numerators) == 1."""

    __slots__ = ("_num", "_den", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = _rectangular(rows)
        if all(type(x) is int for r in data for x in r):
            self._num, self._den = data, 1
        else:
            fracs = [[rat(x) for x in r] for r in data]
            # over the lcm of lowest-terms denominators no factor is common to all
            den = lcm(*(x.denominator for r in fracs for x in r))
            self._num = tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                              for r in fracs)
            self._den = den
        self.nrows = len(data)
        self.ncols = len(data[0])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_integers(cls, rows: Iterable[Iterable[int]], den: int = 1) -> "RationalMatrix":
        """The matrix ``rows / den`` for int ``rows`` and a nonzero int ``den``,
        in canonical form."""
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        data = _rectangular(rows)
        return _raw(data, 1) if den == 1 else _make(data, den)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls.from_integers([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_integers([[int(i == k) for k in range(n)] for i in range(n)])

    @classmethod
    def from_function(cls, nrows: int, ncols: int,
                      f: Callable[[int, int], Scalar]) -> "RationalMatrix":
        return cls([[f(i, k) for k in range(ncols)] for i in range(nrows)])

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        return cls([[e] for e in entries])

    # -- access --------------------------------------------------------------

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        i, k = key
        return Fraction(self._num[i][k], self._den)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        den = self._den
        return tuple(tuple(Fraction(a, den) for a in r) for r in self._num)

    def row(self, i: int) -> Tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(a, den) for a in self._num[i])

    def tolist(self) -> List[List[Fraction]]:
        return [list(r) for r in self.rows]

    def as_integers(self) -> Tuple[IntRows, int]:
        """The canonical numerator rows and their common denominator."""
        return self._num, self._den

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """self + sign * other, both scaled to the lcm of the denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        a, b = self._den, other._den
        g = gcd(a, b)
        sa, sb = b // g, sign * (a // g)
        return _make([[x * sa + y * sb for x, y in zip(ra, rb)]
                      for ra, rb in zip(self._num, other._num)], a * sa)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return _raw(tuple([tuple([-a for a in r]) for r in self._num]), self._den)

    def __mul__(self, c: Scalar) -> "RationalMatrix":
        c = rat(c)
        num = c.numerator
        return _make([[num * a for a in r] for r in self._num], self._den * c.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        acc = [[0] * other.ncols for _ in range(self.nrows)]
        return _make(addmul(acc, self._num, other._num), self._den * other._den)

    def transpose(self) -> "RationalMatrix":
        return _raw(tuple(zip(*self._num)), self._den)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    # -- solved forms ----------------------------------------------------------

    def inverse(self) -> "RationalMatrix":
        """Exact inverse; raises SingularMatrix if none exists.  Reducing
        [N | den I] for the numerators N leaves scale * [I | N^-1 den], and
        N^-1 den is the inverse of N / den."""
        if self.nrows != self.ncols:
            raise SingularMatrix("only square matrices can be inverted")
        n, den = self.nrows, self._den
        work, pivots, scale, _ = _reduce(
            [r + tuple(den if i == k else 0 for k in range(n))
             for i, r in enumerate(self._num)], n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is singular")
        return _make([row[n:] for row in work], scale)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, _, det = _reduce(self._num, self.ncols)
        if len(pivots) < self.nrows:
            return Fraction(0)
        return Fraction(det, self._den ** self.nrows)

    def rank(self) -> int:
        """Exact rank: the number of pivots of the reduced row echelon form."""
        return len(_reduce(self._num, self.ncols)[1])

    def nullspace(self) -> List[List[Fraction]]:
        """Exact basis of the right nullspace, read off the reduced row echelon
        form: one vector per free column, in column order."""
        nc = self.ncols
        work, pivots, scale, _ = _reduce(self._num, nc)
        basis = []
        for fc in (c for c in range(nc) if c not in pivots):
            vec = [Fraction(0)] * nc
            vec[fc] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                vec[pcol] = Fraction(-work[prow][fc], scale)
            basis.append(vec)
        return basis

    # -- block helpers ---------------------------------------------------------

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack needs equal column counts")
        a, b = self._den, other._den
        den = lcm(a, b)
        sa, sb = den // a, den // b
        return _make([[x * sa for x in r] for r in self._num]
                     + [[x * sb for x in r] for r in other._num], den)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"RationalMatrix[{body}]"


def addmul(acc: List[List[int]], left: Sequence[Sequence[int]],
           right: Sequence[Sequence[int]], scale: int = 1) -> List[List[int]]:
    """acc += scale * left @ right on int rows, in place; returns acc.  Zero
    entries of either side form no product, so a 0/1 left selects rows."""
    nonzero = [[(k, b * scale) for k, b in enumerate(row) if b] for row in right]
    for out, row in zip(acc, left):
        for a, terms in zip(row, nonzero):
            if a:
                for k, b in terms:
                    out[k] += a * b
    return acc


def _rectangular(rows: Iterable[Iterable]) -> Tuple[tuple, ...]:
    """The rows as tuples, checked to form a nonempty rectangle."""
    data = tuple(map(tuple, rows))
    if not data:
        raise ValueError("matrix needs at least one row")
    if not data[0]:
        raise ValueError("matrix needs at least one column")
    if len(set(map(len, data))) != 1:
        raise ValueError("ragged rows")
    return data


def _raw(num: IntRows, den: int) -> RationalMatrix:
    m = RationalMatrix.__new__(RationalMatrix)
    m._num = num
    m._den = den
    m.nrows = len(num)
    m.ncols = len(num[0])
    return m


def _make(num: Sequence[Sequence[int]], den: int) -> RationalMatrix:
    """The canonical matrix with numerator rows ``num`` over a nonzero
    ``den``: the sign moved into the numerators, the common factor divided
    out."""
    if den < 0:
        den = -den
        num = [[-a for a in r] for r in num]
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))  # den itself for a zero matrix
        if g != 1:
            den //= g
            num = [[a // g for a in r] for r in num]
    return _raw(tuple(map(tuple, num)), den)


def _reduce(rows: Sequence[Sequence[int]], ncols: int
            ) -> Tuple[List[List[int]], List[int], int, int]:
    """Fraction-free Gauss-Jordan reduction of the integer ``rows``, pivoting
    on the first ``ncols`` columns only (the rest ride along, as the identity
    block of [A | I] does).

    Each step scales every other row by the new pivot, eliminates the pivot
    column and divides by the previous pivot, which divides exactly (Bareiss,
    Math. Comp. 22, 1968): every entry stays a minor of ``rows``.  So every
    pivot row ends with the last pivot, ``scale``, in its pivot column and
    zeros above and below it, and the reduced rows are ``scale`` times the
    reduced row echelon form.  Returns the reduced rows, the pivot columns in
    order, ``scale``, and ``scale`` signed by the row swaps, which is the
    determinant when every one of those columns has a pivot."""
    work = [list(r) for r in rows]
    nr = len(work)
    pivots: List[int] = []
    prev, sign = 1, 1
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, nr) if work[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            work[row], work[piv] = work[piv], work[row]
            sign = -sign
        top = work[row]
        p = top[col]
        for r in range(nr):
            if r == row:
                continue
            f = work[r][col]
            if f:
                work[r] = [(p * v - f * w) // prev for v, w in zip(work[r], top)]
            elif p != prev:
                work[r] = [p * v // prev for v in work[r]]
        prev = p
        pivots.append(col)
    return work, pivots, prev, sign * prev
