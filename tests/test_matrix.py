from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from opde.errors import SingularMatrix
from opde.matrix import RationalMatrix


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
