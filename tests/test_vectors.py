import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from opde.errors import DegreeOverflow
from opde.matrix import RationalMatrix
from opde.poly import ONE, BivariatePoly, X, Y
from opde.vectors import (PolyVector, PolyVectorFamily, apply_matrix, combine,
                          derivative_matrix, expansion_layers, expansion_matrices,
                          joint_left_inverse, monomial_vector, peel, shift_matrix)


def stacked_shift(n: int) -> RationalMatrix:
    """The (2n+2) x (n+2) joint matrix stacking the x shift over the y shift."""
    return shift_matrix(n, 1).vstack(shift_matrix(n, 2))


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


def test_family_rejects_a_vector_of_the_wrong_length_or_degree():
    with pytest.raises(ValueError, match="^vector at degree 1 has length 1$"):
        PolyVectorFamily([PolyVector([ONE]), PolyVector([X])])
    with pytest.raises(DegreeOverflow, match="^vector at degree 1 has degree 2$"):
        PolyVectorFamily([PolyVector([ONE]), PolyVector([X, X * Y])])


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


# -- combine: one fused integer accumulation per entry ---------------------------

def _per_entry_reference(m, v):
    """The textbook product: one polynomial per nonzero entry, summed row by row."""
    out = []
    for row in m.rows:
        acc = BivariatePoly.zero()
        for c, p in zip(row, v):
            if c:
                acc = acc + p * c
        out.append(acc)
    return PolyVector(out)


_DENS = (1, 3, 4, 10)
_rationals = st.builds(Fraction, st.integers(-20, 20), st.sampled_from(_DENS))
_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _rationals,
                         max_size=5).map(BivariatePoly)


@st.composite
def _pairs(draw):
    nrows = draw(st.integers(1, 4))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        ncols = draw(st.integers(1, 4))
        zero = draw(st.integers(0, 3)) == 0
        rows = [[Fraction(0) if zero else draw(_rationals) for _ in range(ncols)]
                for _ in range(nrows)]
        pairs.append((RationalMatrix(rows),
                      PolyVector(draw(st.lists(_polys, min_size=ncols, max_size=ncols)))))
    return pairs


@seed(11012640)
@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_combine_matches_the_per_entry_loop(pairs):
    want = _per_entry_reference(*pairs[0])
    for m, v in pairs[1:]:
        want = want + _per_entry_reference(m, v)
    assert combine(pairs) == want
    for m, v in pairs:
        assert apply_matrix(m, v) == _per_entry_reference(m, v)


def test_combine_of_zero_matrices_is_the_zero_vector():
    v = PolyVector([X * Fraction(1, 3), Y + Fraction(1, 4)])
    out = combine([(RationalMatrix.zeros(3, 2), v),
                   (RationalMatrix.zeros(3, 1), PolyVector([X]))])
    assert out == PolyVector([BivariatePoly.zero()] * 3)
    assert all(p.as_integers() == ({}, 1) for p in out)


def test_combine_over_mixed_denominators():
    # matrix denominators 3 and 10 against entry denominators 1, 3 and 4
    m1 = RationalMatrix([[Fraction(1, 3), 2], [0, Fraction(-2, 3)]])
    m2 = RationalMatrix([[Fraction(3, 10)], [Fraction(7, 10)]])
    v1 = PolyVector([X + 1, Fraction(1, 3) * Y])
    v2 = PolyVector([Fraction(3, 4) * X * Y - Fraction(1, 4)])
    out = combine([(m1, v1), (m2, v2)])
    assert out[0] == Fraction(1, 3) * X + Fraction(1, 3) + Fraction(2, 3) * Y \
        + Fraction(9, 40) * X * Y - Fraction(3, 40)
    assert out[1] == Fraction(-2, 9) * Y + Fraction(21, 40) * X * Y - Fraction(7, 40)


def test_combine_rejects_mismatched_shapes():
    v2 = PolyVector([X, Y])
    with pytest.raises(ValueError, match="shape mismatch"):
        combine([(RationalMatrix.identity(3), v2)])
    with pytest.raises(ValueError, match="shape mismatch"):
        apply_matrix(RationalMatrix.identity(3), v2)
    with pytest.raises(ValueError, match="row-count mismatch"):
        combine([(RationalMatrix.identity(2), v2), (RationalMatrix.zeros(3, 2), v2)])
    with pytest.raises(ValueError):
        combine([])


def test_combine_runs_without_fraction_arithmetic(fraction_ops):
    rng = random.Random(11012640)
    m = RationalMatrix([[Fraction(rng.randint(-9, 9), rng.choice(_DENS)) for _ in range(10)]
                        for _ in range(10)])
    v = PolyVector([BivariatePoly({(rng.randint(0, 4), rng.randint(0, 4)):
                                   Fraction(rng.randint(1, 9), rng.choice(_DENS))
                                   for _ in range(4)}) for _ in range(10)])
    with fraction_ops() as count:
        out = combine([(m, v), (m, v)])
    assert count[0] == 0
    assert out == _per_entry_reference(m * 2, v)


def _peel_by_products(layers, fam, top):
    """The coefficient match as matrix products and differences: the oracle
    of ``peel``'s one integer accumulation per coefficient."""
    xs = []
    for i, acc in enumerate(layers[:top + 1]):
        for k, xk in enumerate(xs):
            term = xk @ fam.G(top - k, top - i)
            acc = -term if acc is None else acc - term
        inv = fam.leading_inverse(top - i)
        xs.append(acc if inv is None else acc @ inv)
    return tuple(xs) + (None,) * (3 - len(xs))


class _RandomLayers:
    """Random rational layers G(m, k) and leading inverses of one kind per
    degree; ``peel`` reads nothing else of a family."""

    def __init__(self, rng, top, inverses):
        self.layers = {(m, k): _sparse_matrix(rng, m + 1, k + 1)
                       for m in range(top + 1) for k in range(m + 1)}
        self.inverses = {m: _inverse_of_kind(rng, kind, m + 1)
                         for m, kind in zip(range(top, -1, -1), inverses)}

    def G(self, m, k):
        return self.layers[m, k]

    def leading_inverse(self, m):
        return self.inverses[m]


def _sparse_matrix(rng, nrows, ncols):
    return RationalMatrix([[0 if rng.random() < 0.4 else
                            Fraction(rng.randint(-9, 9), rng.choice(_DENS))
                            for _ in range(ncols)] for _ in range(nrows)])


def _inverse_of_kind(rng, kind, n):
    if kind == "none":
        return None
    diag = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(_DENS))
            for _ in range(n)]
    if kind == "diagonal":
        return RationalMatrix([[d if i == k else 0 for k in range(n)]
                               for i, d in enumerate(diag)])
    if kind == "permuted":  # one nonzero per row, not on the diagonal
        return RationalMatrix([[d if k == (i + 1) % n else 0 for k in range(n)]
                               for i, d in enumerate(diag)])
    return _sparse_matrix(rng, n, n)  # dense


@pytest.mark.parametrize("inverses", [
    ("none",) * 3, ("diagonal",) * 3, ("dense",) * 3, ("permuted",) * 3,
    ("none", "diagonal", "dense"), ("dense", "none", "diagonal"),
])
@pytest.mark.parametrize("missing", [(), (1,), (2,), (1, 2)],
                         ids=["all-layers", "no-H1", "no-H2", "no-H1-H2"])
def test_peel_matches_products_and_differences(inverses, missing):
    rng = random.Random(f"{inverses}{missing}")
    for top in (0, 1, 2, 5):
        for trial in range(4):
            fam = _RandomLayers(rng, top, inverses)
            nrows = rng.randint(1, 4)
            layers = [None if i in missing or i > top
                      else _sparse_matrix(rng, nrows, top + 1 - i) for i in range(3)]
            assert peel(layers, fam, top) == _peel_by_products(layers, fam, top), \
                (top, trial)
