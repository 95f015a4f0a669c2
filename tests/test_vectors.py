from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opde.errors import DegreeOverflow
from opde.matrix import RationalMatrix
from opde.poly import X, Y
from opde.vectors import (PolyVector, apply_matrix, derivative_matrix,
                          expansion_layers, expansion_matrices, joint_left_inverse,
                          monomial_vector, shift_matrix, stacked_shift)


def test_shift_matrix_examples():
    assert shift_matrix(0, 1) == RationalMatrix([[1, 0]])
    assert shift_matrix(1, 2) == RationalMatrix([[0, 1, 0], [0, 0, 1]])


def test_shift_matrix_action_degree_two():
    lhs = apply_matrix(shift_matrix(2, 1), monomial_vector(3))
    rhs = monomial_vector(2).scale(X)
    assert lhs == rhs


def test_derivative_matrix_examples():
    assert derivative_matrix(2, 1) == RationalMatrix([[2, 0], [0, 1], [0, 0]])
    assert derivative_matrix(2, 2) == RationalMatrix([[0, 0], [1, 0], [0, 2]])
    assert derivative_matrix(1, 1) == RationalMatrix([[1], [0]])
    with pytest.raises(ValueError):
        derivative_matrix(0, 1)


@given(st.integers(0, 6), st.sampled_from([1, 2]))
def test_shift_action(n, axis):
    var = X if axis == 1 else Y
    assert apply_matrix(shift_matrix(n, axis), monomial_vector(n + 1)) == \
        monomial_vector(n).scale(var)


@given(st.integers(1, 6), st.sampled_from([1, 2]))
def test_derivative_action(n, axis):
    assert apply_matrix(derivative_matrix(n, axis), monomial_vector(n - 1)) == \
        monomial_vector(n).diff(axis)


@given(st.integers(0, 6), st.sampled_from([1, 2]))
def test_shift_right_inverse(n, axis):
    l = shift_matrix(n, axis)
    assert l @ l.transpose() == RationalMatrix.identity(n + 1)


@given(st.integers(0, 6))
def test_shift_commutation(n):
    assert shift_matrix(n, 2) @ shift_matrix(n + 1, 1) == \
        shift_matrix(n, 1) @ shift_matrix(n + 1, 2)


@given(st.integers(0, 6))
def test_joint_left_inverse(n):
    assert joint_left_inverse(n) @ stacked_shift(n) == RationalMatrix.identity(n + 2)


def test_joint_left_inverse_small_values():
    assert joint_left_inverse(0) == RationalMatrix.identity(2)
    d3 = joint_left_inverse(3)
    row2 = list(d3.row(2))
    assert row2[2] == Fraction(1, 2) and row2[3 + 2] == Fraction(1, 2)
    assert sum(1 for v in row2 if v != 0) == 2


def test_expansion_matrices_monic_degree_one():
    v = PolyVector([X - Fraction(1, 3), Y - Fraction(1, 3)])
    g1, g0 = expansion_matrices(v, 1)
    assert g1 == RationalMatrix.identity(2)
    assert g0 == RationalMatrix([[Fraction(-1, 3)], [Fraction(-1, 3)]])


def test_expansion_matrices_pure_monomials():
    gs = expansion_matrices(monomial_vector(2), 2)
    assert gs[0] == RationalMatrix.identity(3)
    assert all(all(v == 0 for row in m.rows for v in row) for m in gs[1:])


def test_expansion_round_trip():
    v = PolyVector([X * Y - 2, X**2 + Y, 3 * Y**2 - X])
    gs = expansion_matrices(v, 2)
    rebuilt = None
    for k, g in zip(range(2, -1, -1), gs):
        piece = apply_matrix(g, monomial_vector(k))
        rebuilt = piece if rebuilt is None else rebuilt + piece
    assert rebuilt == v


def test_expansion_degree_overflow():
    with pytest.raises(DegreeOverflow):
        expansion_matrices(PolyVector([X**3]), 2)


@given(st.integers(0, 5), st.integers(1, 4))
def test_expansion_layers_are_the_top_of_the_expansion(n, count):
    v = PolyVector([X**n - 2 * Y, X * Y + Fraction(1, 3)])
    assert expansion_layers(v, n + 2, count) == expansion_matrices(v, n + 2)[:count]


def test_expansion_layers_check_the_whole_vector():
    with pytest.raises(DegreeOverflow):
        expansion_layers(PolyVector([X**5]), 3, 1)


def test_expansion_layers_over_mixed_denominators():
    # entry denominators 1, 3, 4 and 10: every layer is read off each entry's
    # numerators over the lcm and must equal the entry-by-entry expansion
    v = PolyVector([X**3 + 2 * Y, Fraction(1, 3) * X * Y**2 - Fraction(2, 3) * X,
                    Fraction(3, 4) * Y**3 + Fraction(1, 2), Fraction(7, 10) * X**2 * Y])
    layers = expansion_layers(v, 3, 4)
    for k, g in zip(range(3, -1, -1), layers):
        assert g == RationalMatrix([[p.coefficient(k - c, c) for c in range(k + 1)]
                                    for p in v])
    assert layers[0].as_integers()[1] == 60
    assert layers[3].as_integers()[1] == 2
