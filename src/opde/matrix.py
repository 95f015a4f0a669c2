"""Dense exact rational matrices.

Sizes here are tiny (O(n) for desk-scale degrees), so a dense tuple-of-tuples
of Fractions wins over anything clever: every operation is exact and the
values are immutable after construction.  The one concession to sparsity is
in the product, which skips zero entries: most operands are 0/1 shift,
bidiagonal derivative or banded expansion matrices.  Inverse, determinant,
rank and nullspace all read their answer off one exact Gauss-Jordan reduction
(``_reduce``), so there is no rank threshold anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Tuple

from .errors import SingularMatrix
from .poly import Scalar, rat


class RationalMatrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(rat(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == k else 0 for k in range(n)] for i in range(n)])

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
        return self.rows[i][k]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.rows[i]

    def tolist(self) -> List[List[Fraction]]:
        return [list(r) for r in self.rows]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, c: Scalar) -> "RationalMatrix":
        c = rat(c)
        return RationalMatrix([[c * a for a in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # each nonzero a of a left row scales the nonzero entries of the
        # matching right row; zero products are never formed
        right = [[(k, b) for k, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, nonzero in zip(row, right):
                if a:
                    for k, b in nonzero:
                        acc[k] += a * b
            out.append(acc)
        return RationalMatrix(out)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    # -- solved forms ----------------------------------------------------------

    def inverse(self) -> "RationalMatrix":
        """Exact Gauss-Jordan inverse; raises SingularMatrix if none exists."""
        if self.nrows != self.ncols:
            raise SingularMatrix("only square matrices can be inverted")
        n = self.nrows
        work, pivots, _ = _reduce(
            [r + tuple(Fraction(int(i == k)) for k in range(n))
             for i, r in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is singular")
        return RationalMatrix([row[n:] for row in work])

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, det = _reduce(self.rows, self.ncols)
        return det if len(pivots) == self.nrows else Fraction(0)

    def rank(self) -> int:
        """Exact rank: the number of pivots of the reduced row echelon form."""
        return len(_reduce(self.rows, self.ncols)[1])

    def nullspace(self) -> List[List[Fraction]]:
        """Exact basis of the right nullspace, read off the reduced row echelon
        form: one vector per free column, in column order."""
        nc = self.ncols
        work, pivots, _ = _reduce(self.rows, nc)
        basis = []
        for fc in (c for c in range(nc) if c not in pivots):
            vec = [Fraction(0)] * nc
            vec[fc] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -work[prow][fc]
            basis.append(vec)
        return basis

    # -- block helpers ---------------------------------------------------------

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack needs equal column counts")
        return RationalMatrix(list(self.rows) + list(other.rows))

    def _same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"RationalMatrix[{body}]"


def _reduce(rows: Sequence[Sequence[Fraction]], ncols: int
            ) -> Tuple[List[List[Fraction]], List[int], Fraction]:
    """Gauss-Jordan reduction of ``rows`` to reduced row echelon form, pivoting
    on the first ``ncols`` columns only (the rest ride along, as the identity
    block of [A | I] does).  Returns the reduced rows, the pivot columns in
    order, and the product of the pivots signed by the row swaps, which is the
    determinant when every one of those columns has a pivot."""
    work = [list(r) for r in rows]
    nr = len(work)
    pivots: List[int] = []
    det = Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, nr) if work[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            work[row], work[piv] = work[piv], work[row]
            det = -det
        det *= work[row][col]
        inv_p = 1 / work[row][col]
        top = work[row] = [v * inv_p for v in work[row]]
        for r in range(nr):
            f = work[r][col]
            if r != row and f != 0:
                work[r] = [v - f * w for v, w in zip(work[r], top)]
        pivots.append(col)
    return work, pivots, det
