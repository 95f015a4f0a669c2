import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from opde.errors import SingularMatrix
from opde.matrix import RationalMatrix
from opde.poly import X
from opde.vectors import PolyVectorFamily, apply_matrix, expansion_layers, peel


def test_matmul_and_identity():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m @ RationalMatrix.identity(2) == m


def test_inverse_exact():
    m = RationalMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv == RationalMatrix([[1, -1], [-1, 2]])
    assert m @ inv == RationalMatrix.identity(2)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrix):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_det():
    assert RationalMatrix([[Fraction(1, 2), 1], [1, 4]]).det() == 1
    assert RationalMatrix([[1, 2], [2, 4]]).det() == 0


def test_rank_fraction_free():
    assert RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]).rank() == 2
    assert RationalMatrix([[Fraction(1, 3), 0], [0, Fraction(2, 7)]]).rank() == 2
    assert RationalMatrix.zeros(3, 2).rank() == 0


def test_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for vec in basis:
        out = [sum(a * b for a, b in zip(row, vec)) for row in m.rows]
        assert all(v == 0 for v in out)


def test_stacking():
    a = RationalMatrix([[1, 0]])
    b = RationalMatrix([[0, 1]])
    assert a.vstack(b) == RationalMatrix.identity(2)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([[1]]) @ RationalMatrix([[1, 2], [3, 4]])


def _textbook_product(a, b):
    """(A B)_ij = sum_k A_ik B_kj over every k, zeros included."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.ncols)), Fraction(0))
             for j in range(b.ncols)] for i in range(a.nrows)]


# two draws in three are zero, as in shift, derivative and banded matrices
_entries = st.one_of(st.just(0), st.just(0),
                     st.fractions(min_value=-9, max_value=9, max_denominator=7))


def _matrices(nrows, ncols):
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(RationalMatrix)


@st.composite
def _operands(draw, inner_mismatch=False):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    k2 = draw(st.integers(1, 5).filter(lambda v: v != k)) if inner_mismatch else k
    return draw(_matrices(m, k)), draw(_matrices(k2, n))


_ONE_BY_ONE = RationalMatrix([[Fraction(-2, 3)]])
_ROW = RationalMatrix([[0, Fraction(1, 2), 0, 3]])
_COLUMN = RationalMatrix.column([5, 0, Fraction(-1, 7), 0])


@seed(11012640)
@settings(max_examples=150, deadline=None)
@given(_operands())
@example((_ONE_BY_ONE, _ONE_BY_ONE))
@example((_ROW, _COLUMN))
@example((_COLUMN, _ROW))
@example((RationalMatrix.zeros(3, 4), _COLUMN))
@example((_ROW, RationalMatrix.zeros(4, 2)))
@example((RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 3)))
def test_matmul_matches_textbook_definition(pair):
    a, b = pair
    product = a @ b
    assert product.shape == (a.nrows, b.ncols)
    assert product.tolist() == _textbook_product(a, b)
    assert all(type(v) is Fraction for row in product.rows for v in row)


@seed(11012640)
@settings(max_examples=30, deadline=None)
@given(_operands(inner_mismatch=True))
@example((_ROW, _ROW))
@example((_COLUMN, _COLUMN))
def test_matmul_shape_mismatch_raises(pair):
    a, b = pair
    with pytest.raises(ValueError, match="shape mismatch"):
        a @ b


def _cofactor_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(((-1) ** k * a * _cofactor_det([r[:k] + r[k + 1:] for r in rows[1:]])
                for k, a in enumerate(rows[0]) if a), Fraction(0))


@st.composite
def _solvable(draw):
    """Zero-heavy matrices of every shape up to 6x6, a third of them square,
    with a row replaced by a combination of two others in half the draws."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        n = m
    rows = draw(_matrices(m, n)).tolist()
    if m >= 2 and draw(st.booleans()):
        a, b, target = (draw(st.integers(0, m - 1)) for _ in range(3))
        c = draw(_entries)
        rows[target] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return RationalMatrix(rows)


def _applied(m, vec):
    return [sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in m.rows]


def _fraction_reduce(rows, ncols):
    """Reference Gauss-Jordan reduction on Fraction rows: scale each pivot row
    to 1 and clear its column.  Returns the reduced rows, the pivot columns
    and the pivot product signed by the row swaps."""
    work = [list(r) for r in rows]
    nr = len(work)
    pivots = []
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


def _reference_solved_forms(m):
    """(inverse rows or None, det or None, rank, nullspace) of ``m`` from the
    Fraction reduction; det and inverse only for square matrices."""
    rows, nc = m.tolist(), m.ncols
    work, pivots, det = _fraction_reduce(rows, nc)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][fc]
        basis.append(vec)
    if m.nrows != nc:
        return None, None, len(pivots), basis
    full = len(pivots) == nc
    augmented, _, _ = _fraction_reduce(
        [r + [Fraction(int(i == k)) for k in range(nc)] for i, r in enumerate(rows)], nc)
    inverse = [r[nc:] for r in augmented] if full else None
    return inverse, det if full else Fraction(0), len(pivots), basis


@seed(11012640)
@settings(max_examples=200, deadline=None)
@given(_solvable())
@example(_ONE_BY_ONE)
@example(RationalMatrix([[0]]))
@example(RationalMatrix.zeros(3, 3))
@example(RationalMatrix.zeros(2, 4))
@example(RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
@example(RationalMatrix([[0, 1], [1, 0]]))
def test_solved_forms_agree(m):
    rank, basis = m.rank(), m.nullspace()
    ref_inverse, ref_det, ref_rank, ref_basis = _reference_solved_forms(m)
    assert rank == ref_rank
    assert basis == ref_basis
    if ref_det is not None:
        assert m.det() == ref_det
    if ref_inverse is not None:
        assert m.inverse().rows == tuple(map(tuple, ref_inverse))
    assert rank + len(basis) == m.ncols
    assert rank <= min(m.shape)
    for vec in basis:
        assert len(vec) == m.ncols
        assert all(type(v) is Fraction for v in vec)
        assert all(v == 0 for v in _applied(m, vec))
    if m.nrows != m.ncols:
        with pytest.raises(ValueError):
            m.det()
        with pytest.raises(SingularMatrix):
            m.inverse()
        return
    det = m.det()
    assert type(det) is Fraction
    if m.nrows <= 4:
        assert det == _cofactor_det(m.tolist())
    assert (det != 0) == (rank == m.nrows)
    if det != 0:
        assert m @ m.inverse() == RationalMatrix.identity(m.nrows)
        assert m.inverse() @ m == RationalMatrix.identity(m.nrows)
    else:
        with pytest.raises(SingularMatrix):
            m.inverse()


def test_solved_forms_small_cases():
    assert _ONE_BY_ONE.inverse() == RationalMatrix([[Fraction(-3, 2)]])
    assert _ONE_BY_ONE.det() == Fraction(-2, 3)
    assert _ONE_BY_ONE.rank() == 1 and _ONE_BY_ONE.nullspace() == []
    zero = RationalMatrix.zeros(2, 3)
    assert zero.rank() == 0
    assert zero.nullspace() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert RationalMatrix.zeros(2, 2).det() == 0
    # rank 2 of 3: the one free column is the last, its vector read off the
    # reduced rows
    deficient = RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert deficient.det() == 0
    assert deficient.rank() == 2
    assert deficient.nullspace() == [[-1, -1, 1]]
    # a row swap flips the sign of the pivot product
    assert RationalMatrix([[0, 1], [1, 0]]).det() == -1


# -- storage: int numerator rows over one common denominator -------------------


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(_operands())
def test_canonical_form_is_route_independent(pair):
    m, _ = pair
    z = RationalMatrix([[Fraction(1, 7 + i + k) for k in range(m.ncols)]
                        for i in range(m.nrows)])
    routes = [(m * Fraction(1, 3)) * 3, m + z - z, RationalMatrix(m.tolist()),
              m.transpose().transpose()]
    for other in routes:
        assert other == m
        assert hash(other) == hash(m)
        assert other.as_integers() == m.as_integers()
    num, den = m.as_integers()
    assert den > 0
    assert gcd(den, *(a for r in num for a in r)) == 1


def test_zero_matrix_is_over_one():
    m = RationalMatrix([[Fraction(1, 2), Fraction(-1, 3)]])
    assert (m - m).as_integers() == (((0, 0),), 1)
    assert (m * 0) == RationalMatrix.zeros(1, 2)


def test_mixed_int_and_fraction_construction():
    m = RationalMatrix([[1, Fraction(1, 2)], [Fraction(-2, 3), 0]])
    assert m.as_integers() == (((6, 3), (-4, 0)), 6)
    assert m == RationalMatrix([[Fraction(2, 2), Fraction(3, 6)],
                                [Fraction(-4, 6), Fraction(0)]])
    assert RationalMatrix([[2, 4]]).as_integers() == (((2, 4),), 1)
    assert RationalMatrix.from_integers([[2, 4]], -6) == \
        RationalMatrix([[Fraction(-1, 3), Fraction(-2, 3)]])


@pytest.mark.parametrize("rows", [[[1.5]], [[1, 0.0]], [[Fraction(1, 2), 2.0]]])
def test_float_entries_rejected(rows):
    with pytest.raises(TypeError):
        RationalMatrix(rows)


def test_float_scalar_rejected():
    with pytest.raises(TypeError):
        RationalMatrix([[1]]) * 0.5


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]], [[1], [2, 3]], [(1, 2), ()]])
def test_empty_or_ragged_rejected(rows):
    for make in (RationalMatrix, RationalMatrix.from_integers):
        with pytest.raises(ValueError):
            make(rows)


@seed(11012640)
@settings(max_examples=60, deadline=None)
@given(_solvable())
def test_entries_read_back_as_fractions(m):
    rows = m.rows
    assert m.tolist() == [list(r) for r in rows]
    for i in range(m.nrows):
        assert m.row(i) == rows[i]
        for k in range(m.ncols):
            assert m[i, k] == rows[i][k]
            assert type(m[i, k]) is Fraction
    assert all(type(v) is Fraction for r in rows for v in r)
    assert all(type(v) is Fraction for r in m.tolist() for v in r)
    assert all(type(v) is Fraction for i in range(m.nrows) for v in m.row(i))


# -- no Fraction arithmetic in the matrix hot path ------------------------------

def _random_matrix(rng, n):
    return RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                           for _ in range(n)])


def test_matrix_hot_path_runs_without_fraction_arithmetic(fraction_ops):
    rng = random.Random(11012640)
    a, b = _random_matrix(rng, 10), _random_matrix(rng, 10)
    assert a.det() != 0
    with fraction_ops() as count:
        product, difference, inverse = a @ b, a - b, a.inverse()
    assert count[0] == 0
    assert a.as_integers()[1] != 1 and inverse.as_integers()[1] != 1
    assert product.tolist() == _textbook_product(a, b)
    assert difference.rows == tuple(tuple(x - y for x, y in zip(ra, rb))
                                    for ra, rb in zip(a.rows, b.rows))
    assert a @ inverse == RationalMatrix.identity(10)


def test_relation_match_runs_without_fraction_arithmetic(fam23, fraction_ops):
    fam = PolyVectorFamily(fam23.vectors[:10])
    lhs = fam.vector(8).scale(X)
    with fraction_ops() as count:
        a, b, c = peel(expansion_layers(lhs, 9, 3), fam, 9)
    assert count[0] == 0
    assert apply_matrix(a, fam.vector(9)) + apply_matrix(b, fam.vector(8)) \
        + apply_matrix(c, fam.vector(7)) == lhs
