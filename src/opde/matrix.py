"""Dense exact rational matrices.

Sizes here are tiny (O(n) for desk-scale degrees), so a dense tuple-of-tuples
of Fractions wins over anything clever: every operation is exact and the
values are immutable after construction.  The one concession to sparsity is
in the product, which skips zero entries: most operands are 0/1 shift,
bidiagonal derivative or banded expansion matrices.  Rank uses fraction-free
(Bareiss) elimination on an integer-scaled copy so there is no rank threshold
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
        work = [list(r) + [Fraction(int(i == k)) for k in range(n)]
                for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != 0), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            inv_p = 1 / work[col][col]
            work[col] = [v * inv_p for v in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [v - f * w for v, w in zip(work[r], work[col])]
        return RationalMatrix([row[n:] for row in work])

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        work = [list(r) for r in self.rows]
        out = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                out = -out
            out *= work[col][col]
            inv_p = 1 / work[col][col]
            for r in range(col + 1, n):
                if work[r][col] != 0:
                    f = work[r][col] * inv_p
                    work[r] = [v - f * w for v, w in zip(work[r], work[col])]
        return out

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) elimination on integer rows."""
        work: List[List[int]] = []
        for r in self.rows:
            scale = 1
            for v in r:
                scale = scale * v.denominator // gcd(scale, v.denominator)
            work.append([int(v * scale) for v in r])
        nr, nc = self.nrows, self.ncols
        rank = 0
        prev = 1
        row = 0
        for col in range(nc):
            piv = next((r for r in range(row, nr) if work[r][col] != 0), None)
            if piv is None:
                continue
            work[row], work[piv] = work[piv], work[row]
            for r in range(row + 1, nr):
                for c in range(col + 1, nc):
                    work[r][c] = (work[row][col] * work[r][c]
                                  - work[r][col] * work[row][c]) // prev
                work[r][col] = 0
            prev = work[row][col]
            rank += 1
            row += 1
            if row == nr:
                break
        return rank

    def nullspace(self) -> List[List[Fraction]]:
        """Exact basis of the right nullspace, via reduced row echelon form."""
        nr, nc = self.nrows, self.ncols
        work = [list(r) for r in self.rows]
        pivots: List[int] = []
        row = 0
        for col in range(nc):
            piv = next((r for r in range(row, nr) if work[r][col] != 0), None)
            if piv is None:
                continue
            work[row], work[piv] = work[piv], work[row]
            inv_p = 1 / work[row][col]
            work[row] = [v * inv_p for v in work[row]]
            for r in range(nr):
                if r != row and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [v - f * w for v, w in zip(work[r], work[row])]
            pivots.append(col)
            row += 1
            if row == nr:
                break
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
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
