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
