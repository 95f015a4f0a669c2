from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from opde.errors import DivisionByZeroPoly, NotDivisible
from opde.poly import NEG_INF, BivariatePoly, X, Y, ZERO, pochhammer, rat

coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=9)
polys = st.builds(
    BivariatePoly,
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=6),
)


def test_square_of_sum():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


def test_evaluate():
    p = X * (1 - X - Y)
    assert p.evaluate(Fraction(1, 3), Fraction(1, 3)) == Fraction(1, 9)


def test_multiply_by_zero_gives_empty_map():
    p = X**2 + 3 * Y
    assert (p * ZERO).is_zero()
    assert len(p * ZERO) == 0


def test_zero_degree_is_sentinel():
    assert ZERO.degree() == NEG_INF
    assert ZERO.degree() != -1
    # degree arithmetic stays honest through the sentinel
    assert (ZERO * X).degree() == NEG_INF


def test_diff():
    assert (X**2 * Y).diff(1) == 2 * X * Y
    assert (X**2).diff(2) == ZERO


def test_exact_division():
    assert (X**2 - Y**2).exact_div(X - Y) == X + Y
    assert (X * (1 - X - Y)).exact_div(X) == 1 - X - Y
    with pytest.raises(NotDivisible):
        (X + 1).exact_div(Y)
    with pytest.raises(DivisionByZeroPoly):
        X.exact_div(ZERO)


def test_pochhammer():
    assert pochhammer(1, 3) == 6
    assert pochhammer(Fraction(7, 5), 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


def test_trailing_coefficient_orders_by_graded_lex():
    p = Y * (1 - X - Y)  # y - xy - y^2
    assert p.trailing_coefficient() == 1
    assert (-p).trailing_coefficient() == -1


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        BivariatePoly({(0, 0): 0.5})


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) - q == p
    assert p * q == q * p


@given(polys, polys)
def test_degree_of_product_adds(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree() == p.degree() + q.degree()


@given(polys, polys)
def test_exact_division_round_trip(p, q):
    if not q.is_zero():
        assert (p * q).exact_div(q) == p


@given(polys, polys)
def test_diff_is_a_derivation(p, q):
    for axis in (1, 2):
        assert (p * q).diff(axis) == p.diff(axis) * q + p * q.diff(axis)


def _textbook_product(p, q):
    out = {}
    for (i1, j1), c1 in p.terms():
        for (i2, j2), c2 in q.terms():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


@st.composite
def _factor_pairs(draw):
    p, r = draw(polys), draw(polys)
    if draw(st.booleans()):
        return p + r, p - r  # the cross terms of (p + r)(p - r) cancel
    return p, r


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(_factor_pairs())
@example((X + Y, X - Y))
@example((X * Y - 1, X * Y + 1))
@example((ZERO, X + 1))
@example((BivariatePoly.const(Fraction(-3, 4)), X**2 - Y))
def test_product_matches_textbook_double_sum(pair):
    p, q = pair
    product = p * q
    assert dict(product.terms()) == _textbook_product(p, q)  # no zero is stored
    assert all(type(c) is Fraction for _, c in product.terms())


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, polys, st.booleans())
@example(X + Y, ZERO, True)  # p + (-p): every term cancels
@example(X**2 + 3 * Y - 1, X - 3 * Y, False)
@example(ZERO, ZERO, False)
def test_sum_matches_termwise_sum(p, r, cancel):
    q = r - p if cancel else r  # p + (r - p) cancels every term of p not in r
    a, b = dict(p.terms()), dict(q.terms())
    want = {e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()}
    total = p + q
    assert dict(total.terms()) == {e: c for e, c in want.items() if c != 0}  # no zero is stored
    assert all(type(c) is Fraction for _, c in total.terms())


def _grlex(e):
    return (e[0] + e[1], e[0])


def _textbook_quotient(a, b):
    """Graded-lex long division of Fraction dicts; None when b does not divide a."""
    rem, quot = dict(a), {}
    lead = max(b, key=_grlex)
    while rem:
        top = max(rem, key=_grlex)
        d = (top[0] - lead[0], top[1] - lead[1])
        if d[0] < 0 or d[1] < 0:
            return None
        c = rem[top] / b[lead]
        quot[d] = c
        for (i, j), v in b.items():
            e = (i + d[0], j + d[1])
            rem[e] = rem.get(e, Fraction(0)) - c * v
            if rem[e] == 0:
                del rem[e]
    return quot


def _assert_fraction_terms(p):
    assert all(type(c) is Fraction for _, c in p.terms())


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, polys)
@example(X * Fraction(1, 2) + Y * Fraction(1, 2), ZERO)  # common factor 1/2
@example(ZERO, X)
def test_every_route_reaches_one_canonical_form(p, q):
    routes = [(p * Fraction(1, 3)) * 3, p + q - q, BivariatePoly(dict(p.terms())), -(-p),
              p * Fraction(7, 4) * Fraction(4, 7), (p * (q * q + 1)).exact_div(q * q + 1)]
    for other in routes:
        assert other == p
        assert hash(other) == hash(p)
        _assert_fraction_terms(other)


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, coeffs)
@example(BivariatePoly({(2, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}), Fraction(2, 3))
def test_diff_and_scaling_match_fraction_dicts(p, c):
    terms = dict(p.terms())
    for axis in (1, 2):
        want = {}
        for (i, j), v in terms.items():
            k = i if axis == 1 else j
            if k:
                want[(i - 1, j) if axis == 1 else (i, j - 1)] = v * k
        assert dict(p.diff(axis).terms()) == want
        _assert_fraction_terms(p.diff(axis))
    scaled = p * c
    assert dict(scaled.terms()) == {e: v * c for e, v in terms.items() if v * c != 0}
    assert scaled == c * p
    _assert_fraction_terms(scaled)


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, coeffs, st.one_of(coeffs, st.integers(-5, 5)))
@example(ZERO, Fraction(1, 2), 3)
@example(X**3 * Y * Fraction(-2, 9) + 1, Fraction(-3, 2), Fraction(5, 7))
def test_evaluate_matches_fraction_dict(p, x, y):
    want = sum((c * Fraction(x)**i * Fraction(y)**j for (i, j), c in p.terms()), Fraction(0))
    got = p.evaluate(x, y)
    assert type(got) is Fraction
    assert got == want


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
@example(X + 1, Fraction(-3, 5) * X**2 + Y, ZERO)
@example(X + 1, -2 * X + 3, Y)  # a negative leading numerator that is not a unit
def test_exact_division_matches_fraction_dict(p, q, r):
    if q.is_zero():
        return
    for dividend in (p * q, p * q + r):
        want = _textbook_quotient(dict(dividend.terms()), dict(q.terms()))
        if want is None:
            with pytest.raises(NotDivisible):
                dividend.exact_div(q)
        else:
            got = dividend.exact_div(q)
            assert dict(got.terms()) == want
            assert got == BivariatePoly(want) and hash(got) == hash(BivariatePoly(want))
            _assert_fraction_terms(got)


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(polys, st.integers(1, 12), st.sampled_from([1, -1]))
@example(ZERO, 5, -1)
@example(X * Fraction(1, 2) + Y * Fraction(3, 2), 4, 1)  # common factor 1/2
def test_from_integers_is_route_independent(p, k, sign):
    # numerators and denominator lifted by a common factor, a zero term added
    terms, den = p.as_integers()
    lifted = {e: sign * k * c for e, c in terms.items()}
    lifted[(7, 7)] = 0
    q = BivariatePoly.from_integers(lifted, sign * k * den)
    for route in (p, BivariatePoly(dict(p.terms())), p + X - X):
        assert q == route
        assert hash(q) == hash(route)
        assert q.as_integers() == route.as_integers()


def test_from_integers_copies_and_validates():
    terms = {(2, 1): 6, (0, 0): -2}
    p = BivariatePoly.from_integers(terms, 18)
    terms[(0, 0)] = 5
    assert p == X**2 * Y * Fraction(1, 3) - Fraction(1, 9)
    assert p.as_integers() == ({(2, 1): 3, (0, 0): -1}, 9)
    assert BivariatePoly.from_integers({(1, 0): 0}, 7).as_integers() == ({}, 1)
    assert BivariatePoly.from_integers({}) == ZERO
    with pytest.raises(ZeroDivisionError):
        BivariatePoly.from_integers({(0, 0): 1}, 0)


def test_hash_is_kept_and_route_independent():
    half = (X + Y) ** 2 * Fraction(1, 2)
    first = hash(half)
    assert hash(half) == first  # the second call reads the stored hash
    routes = [X**2 * Fraction(1, 2) + X * Y + Y**2 * Fraction(1, 2),
              BivariatePoly({(2, 0): Fraction(1, 2), (1, 1): 1, (0, 2): Fraction(1, 2)}),
              BivariatePoly.from_integers({(2, 0): -3, (1, 1): -6, (0, 2): -3}, -6),
              ((X + Y) ** 3 * Fraction(1, 2)).exact_div(X + Y)]
    for q in routes:
        assert q == half and hash(q) == first
        assert {half: "found"}[q] == "found"
