from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from opde import golden
from opde.errors import IndexOutOfPrintedRange
from opde.families import (AppellParams, _jacobi_sum, appell_pde, connection_F,
                           connection_K, functional, koornwinder,
                           koornwinder_vector, make_family, moment, moment_table,
                           monic_appell_series, monic_appell_vector,
                           nonmonic_F, nonmonic_F_vector, orthogonality_blocks,
                           pairing, triangle_params)
from opde.golden import golden_matrix
from opde.matrix import RationalMatrix
from opde.monic import build_monic
from opde.pde import HypergeometricPDE
from opde.poly import BivariatePoly, X, Y, pochhammer
from opde.vectors import PolyVector, PolyVectorFamily, apply_matrix


# -- independent oracle for the moment closed form ----------------------------
#
# For integer parameters the weight is a pure monomial, so the functional is
# an iterated *polynomial* integral over the triangle: integrate y^q from 0
# to 1-x exactly, expand, then integrate each x-power over [0, 1].

def _integral_monomial_triangle(p: int, q: int) -> Fraction:
    inner = (BivariatePoly.const(1) - X) ** (q + 1) * Fraction(1, q + 1)
    total = Fraction(0)
    for (i, _), c in (inner * X**p).terms():
        total += c * Fraction(1, i + 1)
    return total


def bruteforce_moment(alpha: int, beta: int, i: int, j: int) -> Fraction:
    top = _integral_monomial_triangle(alpha + i - 1, beta + j - 1)
    bottom = _integral_monomial_triangle(alpha - 1, beta - 1)
    return top / bottom


def test_moment_closed_form_against_bruteforce():
    for alpha in (1, 2, 3):
        for beta in (1, 2, 4):
            p = AppellParams(alpha, beta)
            for i in range(4):
                for j in range(4):
                    assert moment(p, i, j) == bruteforce_moment(alpha, beta, i, j)


def test_moment_spot_values():
    assert moment(AppellParams(1, 1), 1, 0) == Fraction(1, 3)
    assert moment(AppellParams(2, 3), 1, 1) == Fraction(1, 7)
    for p in (AppellParams(1, 1), AppellParams(Fraction(5, 2), Fraction(7, 3))):
        assert moment(p, 0, 0) == 1


def test_series_first_values(p11):
    assert monic_appell_series(p11, 1, 0) == X - Fraction(1, 3)
    assert monic_appell_series(p11, 0, 0) == BivariatePoly.const(1)


def test_series_matches_recurrence_route(p23, fam23):
    for n in range(5):
        assert monic_appell_vector(p23, n) == fam23.vector(n)


def test_series_is_monic(p23):
    for n in range(4):
        for m in range(4):
            poly = monic_appell_series(p23, n, m)
            assert poly.coefficient(n, m) == 1
            assert poly.degree() == n + m


def test_orthogonality_blocks(p11, fam11, p23, fam23):
    assert orthogonality_blocks(p11, fam11, 1, 0) == RationalMatrix.zeros(1, 2)
    assert orthogonality_blocks(p23, fam23, 3, 1) == RationalMatrix.zeros(2, 4)
    h0 = orthogonality_blocks(p11, fam11, 0, 0)
    assert h0 == RationalMatrix([[1]])
    for n in range(5):
        assert orthogonality_blocks(p23, fam23, n, n).det() != 0


def jacobi(a, b, n):
    """Degree-n Jacobi polynomial in x, classical normalization
    P_n(1) = (a+1)_n / n!: the power sum of ``_jacobi_sum`` expanded with
    ((1 - x)/2)^k = 2^(n-k) sum_j C(k, j) (-x)^j / 2^n, on ints."""
    nums, den = _jacobi_sum(Fraction(a), Fraction(b), n)
    terms = {(j, 0): (-1) ** j * sum(comb(k, j) * c << (n - k) for k, c in enumerate(nums))
             for j in range(n + 1)}
    return BivariatePoly.from_integers(terms, den << n)


def test_jacobi():
    assert jacobi(0, 0, 0) == BivariatePoly.const(1)
    assert jacobi(1, 0, 1) == (3 * X + 1) * Fraction(1, 2)
    assert jacobi(0, 0, 2).evaluate(1, 0) == 1
    # normalization at the right endpoint for a fractional parameter pair
    a, b = Fraction(3, 2), Fraction(1, 2)
    from opde.poly import pochhammer
    from math import factorial
    for n in range(5):
        want = pochhammer(a + 1, n) / factorial(n)
        assert jacobi(a, b, n).evaluate(1, 0) == want


# -- the three-term recurrence and the nested substitution, kept as the oracle --

@lru_cache(maxsize=None)
def _jacobi_recurrence(a, b, n):
    """P_n^(a,b) by the classical three-term recurrence, on Fractions."""
    a, b = Fraction(a), Fraction(b)
    if n == 0:
        return BivariatePoly.const(1)
    if n == 1:
        return BivariatePoly({(1, 0): (a + b + 2) / 2, (0, 0): (a - b) / 2})
    c0 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
    c1 = (2 * n + a + b - 1) * (a * a - b * b)
    c2 = (2 * n + a + b - 1) * (2 * n + a + b) * (2 * n + a + b - 2)
    c3 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
    return ((c2 * X + BivariatePoly.const(c1)) * _jacobi_recurrence(a, b, n - 1)
            - c3 * _jacobi_recurrence(a, b, n - 2)) * (1 / c0)


def _koornwinder_by_substitution(p, n, m):
    """The nested-Jacobi polynomial by substituting 2x - 1 and 2y/(1-x) - 1
    into the recurrence polynomials, with (1-x)^m clearing the inner one."""
    inner_poly = _jacobi_recurrence(0, p.beta - 1, m)
    inner = sum((inner_poly.coefficient(k, 0) * (2 * Y - 1 + X)**k * (1 - X)**(m - k)
                 for k in range(m + 1)), BivariatePoly.zero())
    outer_poly = _jacobi_recurrence(2 * m + p.beta, p.alpha - 1, n)
    outer = sum((outer_poly.coefficient(k, 0) * (2 * X - 1)**k for k in range(n + 1)),
                BivariatePoly.zero())
    return outer * inner


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (Fraction(3, 2), Fraction(1, 2)),
                                  (Fraction(-1, 2), Fraction(5, 7)), (4, Fraction(-2, 3))])
def test_jacobi_matches_the_recurrence(a, b):
    for n in range(12):
        assert jacobi(a, b, n) == _jacobi_recurrence(a, b, n), n


@pytest.mark.parametrize("alpha, beta", [
    (Fraction(3, 2), Fraction(5, 7)), (Fraction(5, 7), Fraction(3, 2)),
    (Fraction(7, 4), Fraction(2, 5)), (Fraction(2, 5), Fraction(7, 4)),
    (Fraction(4, 3), Fraction(5, 8)),
], ids=["3/2,5/7", "5/7,3/2", "7/4,2/5", "2/5,7/4", "4/3,5/8"])
def test_koornwinder_matches_the_substitution(alpha, beta):
    # the five non-integer points of the benchmark's triangle-verify
    p = AppellParams(alpha, beta)
    for n in range(10):
        for m in range(10 - n):
            assert koornwinder(p, n, m) == _koornwinder_by_substitution(p, n, m), (n, m)


def test_koornwinder_fraction_work_does_not_grow_with_degree(fraction_ops):
    # the coefficients are summed on ints: the only Fraction arithmetic forms
    # the Jacobi parameters, a fixed number of operations per polynomial
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    counts = []
    for n, m in ((0, 0), (1, 2), (5, 4)):
        with fraction_ops() as count:
            koornwinder(p, n, m)
        counts.append(count[0])
    assert counts[0] == counts[1] == counts[2]
    with pytest.raises(ValueError):
        koornwinder(p, 1, -1)


def test_koornwinder_values(p11):
    assert koornwinder(p11, 0, 1) == X + 2 * Y - 1
    assert koornwinder(p11, 1, 0) == 3 * X - 1
    assert koornwinder(p11, 0, 0) == BivariatePoly.const(1)


def test_nonmonic_F_values(p11):
    assert nonmonic_F(p11, 1, 0) == 1 - 2 * X - Y
    assert nonmonic_F(p11, 0, 1) == 1 - X - 2 * Y
    assert nonmonic_F(p11, 0, 0) == BivariatePoly.const(1)


def test_nonmonic_F_symmetry(p23):
    # swapping the roles of x and y swaps the parameters and indices
    swapped = AppellParams(p23.beta, p23.alpha)
    f = nonmonic_F(p23, 2, 1)
    g = nonmonic_F(swapped, 1, 2)
    mirrored = BivariatePoly({(j, i): c for (i, j), c in g.terms()})
    assert f == mirrored


def test_connection_F_values(p11):
    assert connection_F(p11, 1) == RationalMatrix([[-2, -1], [-1, -2]])
    assert connection_F(p11, 0) == RationalMatrix([[1]])
    row = apply_matrix(connection_F(p11, 1), monic_appell_vector(p11, 1))
    assert row[0] == 1 - 2 * X - Y


def test_connection_K_values(p11):
    assert connection_K(p11, 1) == RationalMatrix([[3, 0], [1, 2]])
    kv = apply_matrix(connection_K(p11, 1), monic_appell_vector(p11, 1))
    assert kv[0] == 3 * X - 1
    assert kv[1] == X + 2 * Y - 1


def test_connection_diagonals_positive():
    for pt in [(1, 1), (2, 3), (Fraction(5, 2), Fraction(7, 3))]:
        p = AppellParams(*pt)
        for n in range(5):
            gk = connection_K(p, n)
            assert all(gk[i, i] > 0 for i in range(n + 1))
            assert gk.det() != 0
            assert connection_F(p, n).det() != 0


def test_connection_routes_coincide(p23):
    for n in range(5):
        monic = monic_appell_vector(p23, n)
        assert apply_matrix(connection_F(p23, n), monic) == nonmonic_F_vector(p23, n)
        assert apply_matrix(connection_K(p23, n), monic) == koornwinder_vector(p23, n)


def test_connection_routes_fractional_parameters():
    # fractional exponents stress the rising-factorial and Jacobi paths
    p = AppellParams(Fraction(5, 2), Fraction(7, 3))
    for n in range(4):
        monic = monic_appell_vector(p, n)
        assert apply_matrix(connection_F(p, n), monic) == nonmonic_F_vector(p, n)
        assert apply_matrix(connection_K(p, n), monic) == koornwinder_vector(p, n)


def test_biorthogonality_small(p11):
    # off-diagonal cross moments vanish within and across degree layers
    fs = {(n, m): nonmonic_F(p11, n, m) for n in range(3) for m in range(3 - n)}
    As = {(n, m): monic_appell_series(p11, n, m) for n in range(3) for m in range(3 - n)}
    for (n, m), f in fs.items():
        for (k, l), a in As.items():
            val = functional(p11, f * a)
            if (n, m) == (k, l):
                assert val != 0
            else:
                assert val == 0


def test_golden_spot_values(p11):
    assert golden_matrix(p11.alpha, p11.beta, 1, "C1")[0, 0] == Fraction(1, 18)
    w1 = golden_matrix(p11.alpha, p11.beta, 3, "W1")
    assert all(w1[i, i] == i - 3 and w1[i, i + 1] == i - 3 for i in range(4))
    v1 = golden_matrix(p11.alpha, p11.beta, 2, "V1")
    assert v1 == RationalMatrix([[Fraction(1, 3), 0, 0],
                                 [0, Fraction(1, 2), 0],
                                 [0, 0, 1]])


def test_golden_spot_value_B0(p23):
    b0 = golden_matrix(p23.alpha, p23.beta, 0, "B1")
    assert b0 == RationalMatrix([[p23.alpha / (p23.alpha + p23.beta + 1)]])


def test_golden_out_of_range():
    p = AppellParams(1, 1)
    with pytest.raises(IndexOutOfPrintedRange):
        golden_matrix(p.alpha, p.beta, 0, "C1")
    with pytest.raises(IndexOutOfPrintedRange):
        golden_matrix(p.alpha, p.beta, 1, "Z2")
    with pytest.raises(KeyError):
        golden_matrix(p.alpha, p.beta, 2, "Q7")


def test_params_validation():
    with pytest.raises(ValueError):
        AppellParams(0, 1)
    with pytest.raises(ValueError):
        AppellParams(1, Fraction(-1, 2))


# -- the triangle read off its equation ------------------------------------------

_positive = st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))


@seed(30)
@settings(max_examples=60, deadline=None)
@given(_positive, _positive)
def test_triangle_params_of_the_triangle_equation(alpha, beta):
    p = AppellParams(alpha, beta)
    assert triangle_params(appell_pde(p)) == p


_P = AppellParams(Fraction(3, 2), Fraction(5, 7))
_NOT_THE_TRIANGLE = {
    "disk": HypergeometricPDE.from_coeffs(a=-1, c1=1, c2=1, e=-4),
    "laguerre": HypergeometricPDE.from_coeffs(b1=1, b2=1, e=-1, f1=1, f2=2),
    "hermite": HypergeometricPDE.from_coeffs(c1=1, c2=1, e=-2),
    "doubled": HypergeometricPDE(*(2 * c for c in appell_pde(_P))),
    # the triangle's coefficients with f1 = alpha at zero or below
    "f1-zero": appell_pde(_P)._replace(f1=Fraction(0), e=-(_P.beta + 1)),
    "f1-negative": appell_pde(_P)._replace(f1=Fraction(-1), e=-_P.beta),
    **{f"{name}-moved": appell_pde(_P)._replace(
        **{name: getattr(appell_pde(_P), name) + Fraction(1, 10 ** 6)})
       for name in HypergeometricPDE._fields},
}


@pytest.mark.parametrize("name", sorted(_NOT_THE_TRIANGLE))
def test_triangle_params_need_the_exact_equation(name):
    # exact coefficient matching: a scaled or perturbed equation is not it
    assert triangle_params(_NOT_THE_TRIANGLE[name]) is None


def test_make_family_reads_the_parameters_off_the_equation():
    pde = appell_pde(_P)
    assert make_family(pde, "koornwinder", 3).vector(3) == koornwinder_vector(_P, 3)
    assert make_family(pde, "appell-F", 3).vector(2) == nonmonic_F_vector(_P, 2)
    with pytest.raises(ValueError, match="needs the triangle equation"):
        make_family(_NOT_THE_TRIANGLE["disk"], "koornwinder", 3)


def test_make_family_rejects_an_unknown_name():
    # every name other than monic and appell-F once meant Koornwinder
    with pytest.raises(ValueError, match="'bogus': choose one of monic, appell-F, koornwinder"):
        make_family(appell_pde(_P), "bogus", 2)


# -- the integer moment table behind functional and orthogonality_blocks -------

_POINTS = [AppellParams(1, 1), AppellParams(2, 3), AppellParams(Fraction(3, 2), Fraction(5, 7))]


@pytest.mark.parametrize("p", _POINTS, ids=["1,1", "2,3", "3/2,5/7"])
def test_moment_table_matches_moment(p):
    rows, den = moment_table(p, 12)
    assert [len(r) for r in rows] == list(range(13, 0, -1))
    assert den > 0 and gcd(den, *(c for r in rows for c in r)) == 1
    for i in range(13):
        for j in range(13 - i):
            assert Fraction(rows[i][j], den) == moment(p, i, j), (i, j)


_coefficients = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 7, 10)))


@seed(11012640)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_POINTS),
       st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _coefficients,
                       max_size=8))
@example(_POINTS[2], {})  # the zero polynomial
@example(_POINTS[2], {(0, 0): Fraction(1, 3), (3, 4): Fraction(-7, 10), (1, 0): 2})
def test_functional_matches_a_fraction_sum(p, terms):
    poly = BivariatePoly(terms)
    want = sum((c * moment(p, i, j) for (i, j), c in poly.terms()), Fraction(0))
    got = functional(p, poly)
    assert type(got) is Fraction
    assert got == want


def test_orthogonality_blocks_run_without_fraction_arithmetic(fraction_ops):
    p = _POINTS[2]
    fam = build_monic(appell_pde(p), 6)
    moment_table(p, 12)
    with fraction_ops() as count:
        h6 = orthogonality_blocks(p, fam, 6, 6)
    assert count[0] == 0
    want = [[sum((c * moment(p, i + 6 - r, j + r) for (i, j), c in q.terms()), Fraction(0))
             for q in fam.vector(6)] for r in range(7)]
    assert h6 == RationalMatrix(want)
    assert h6.det() != 0


def test_orthogonality_blocks_catch_a_bumped_coefficient():
    # one coefficient of P_3 moved by 1/5: the family is no longer orthogonal
    # to the lower degrees, and the blocks with m < 3 show it
    p = _POINTS[2]
    fam = build_monic(appell_pde(p), 4)
    assert all(orthogonality_blocks(p, fam, 3, m) == RationalMatrix.zeros(m + 1, 4)
               for m in range(3))
    p3 = list(fam.vector(3))
    p3[1] = p3[1] + Fraction(1, 5) * X * Y
    bumped = PolyVectorFamily([*fam.vectors[:3], PolyVector(p3), fam.vector(4)])
    nonzero = [m for m in range(3)
               if orthogonality_blocks(p, bumped, 3, m) != RationalMatrix.zeros(m + 1, 4)]
    assert nonzero


# -- integer oracle kernels against plain Fraction evaluations ----------------
#
# The golden tables, the series route, the connection matrices and the
# biorthogonality pairing run on ints; each is pinned here to the printed
# formula evaluated term by term in Fraction arithmetic, at (2, 3), at a point
# with alpha + beta = 1, at one with alpha + beta < 1 (a negative divisor at
# n = 0), and at the five triangle-verify points of bench/README.md.

_KERNEL_POINTS = [AppellParams(2, 3), AppellParams(Fraction(1, 3), Fraction(2, 3)),
                  AppellParams(Fraction(1, 4), Fraction(1, 3))] + [
    AppellParams(Fraction(a), Fraction(b))
    for a, b in (("3/2", "5/7"), ("5/7", "3/2"), ("7/4", "2/5"), ("2/5", "7/4"), ("4/3", "5/8"))]
_KERNEL_IDS = [f"{p.alpha},{p.beta}" for p in _KERNEL_POINTS]


def _series_by_fractions(p, n, m):
    a, b = p.alpha, p.beta
    nm = n + m
    pref = (Fraction(-1) ** nm) * pochhammer(a, n) * pochhammer(b, m) \
        / pochhammer(a + b + nm, nm)
    return BivariatePoly({
        (j, k): pref * pochhammer(a + b + nm, j + k) * pochhammer(-n, j) * pochhammer(-m, k)
        / (pochhammer(a, j) * pochhammer(b, k) * factorial(j) * factorial(k))
        for j in range(n + 1) for k in range(m + 1)})


def _connection_F_by_fractions(p, n):
    a, b = p.alpha, p.beta
    return RationalMatrix(
        [[Fraction(-1) ** n * comb(n, j) * pochhammer(a + n - i, n - j) * pochhammer(b + i, j)
          / (pochhammer(a, n - j) * pochhammer(b, j)) for j in range(n + 1)]
         for i in range(n + 1)])


def _connection_K_by_fractions(p, n):
    a, b = p.alpha, p.beta
    return RationalMatrix(
        [[pochhammer(a + b + n + i, n - i) * pochhammer(b + j, i)
          / (factorial(n - i) * factorial(j) * factorial(i - j)) if i >= j else 0
          for j in range(n + 1)] for i in range(n + 1)])


def _golden_kinds(n):
    return [name for name, (_, n_min) in golden._TABLE.items() if n >= n_min]


@pytest.mark.parametrize("p", _KERNEL_POINTS, ids=_KERNEL_IDS)
def test_series_and_connections_match_fraction_evaluations(p):
    for n in range(6):
        for m in range(6 - n):
            assert monic_appell_series(p, n, m) == _series_by_fractions(p, n, m), (n, m)
        assert connection_F(p, n) == _connection_F_by_fractions(p, n), n
        assert connection_K(p, n) == _connection_K_by_fractions(p, n), n


@pytest.mark.parametrize("p", _KERNEL_POINTS, ids=_KERNEL_IDS)
def test_golden_tables_match_fraction_evaluations(p, monkeypatch):
    # the same entry functions, run once more with Fraction for the private
    # rational type
    for n in range(8):
        for name in _golden_kinds(n):
            if p.alpha + p.beta == 1 and n == 0 and name in ("B1", "B2"):
                continue  # divides by zero; pinned below
            builder = golden._TABLE[name][0]
            with monkeypatch.context() as patch:
                patch.setattr(golden, "_Q", Fraction)
                want = RationalMatrix(builder(p.alpha, p.beta, n))
            assert golden_matrix(p.alpha, p.beta, n, name) == want, (name, n)


@pytest.mark.parametrize("which", ["B1", "B2"])
def test_golden_B_at_zero_divides_by_zero_when_alpha_plus_beta_is_one(which):
    # d0 = 2n - 1 + alpha + beta vanishes at n = 0
    with pytest.raises(ZeroDivisionError):
        golden_matrix(Fraction(1, 3), Fraction(2, 3), 0, which)


def _pairing_sides(p, top):
    left = [f for n in range(top + 1) for f in koornwinder_vector(p, n)]
    right = [a for n in range(top + 1) for a in monic_appell_vector(p, n)]
    return left + [BivariatePoly.zero()], right + [BivariatePoly.const(Fraction(2, 3))]


@pytest.mark.parametrize("p", _KERNEL_POINTS, ids=_KERNEL_IDS)
def test_pairing_matches_a_fraction_sum(p):
    left, right = _pairing_sides(p, 3)
    want = [[sum((c * moment(p, i, j) for (i, j), c in (f * q).terms()), Fraction(0))
             for q in right] for f in left]
    assert pairing(p, left, right) == RationalMatrix(want)


def test_golden_tables_and_pairing_run_without_fraction_arithmetic(fraction_ops):
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    left, right = _pairing_sides(p, 4)
    moment_table(p, 8)
    with fraction_ops() as count:
        for n in range(8):
            for name in _golden_kinds(n):
                golden_matrix(p.alpha, p.beta, n, name)
        pairing(p, left, right)
    assert count[0] == 0


@pytest.mark.parametrize("kernel", [monic_appell_vector, connection_F, connection_K,
                                    moment_table.__wrapped__],
                         ids=["monic_appell_vector", "connection_F", "connection_K",
                              "moment_table"])
def test_rising_factorial_kernels_run_without_fraction_arithmetic(kernel, fraction_ops):
    # every rising factorial is read off int lists; a pochhammer per term or
    # per entry would count thousands of Fraction operations here
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    with fraction_ops() as count:
        for n in range(7):
            kernel(p, n)
    assert count[0] == 0
