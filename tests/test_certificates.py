"""Symbolic certificates: closed forms proven as identities in the
equation's eleven coefficients and in the degree, not checked at sample
points.

``monic.subleading_matrices`` gives the first two subleading expansion
matrices of the monic degree-n vector P_n.  Below they are written with n,
the row index i and every coefficient as ``sympy`` symbols.  Substituting
P_n into the equation, the layers of degree n - 1 and n - 2 of
D P_n + lambda_n P_n vanish identically; for the second matrix's middle
diagonal this is ERRATA.md section 1's corrected entry, proven for every
equation and every degree.  ``subleading_matrices`` itself, run on symbolic
coefficients, equals these forms entry by entry at n = 1..8.

``HypergeometricPDE.shifted`` is proven the equation of the derivatives:
differentiating D u + lambda_n u once in x (or y) for a symbolic function u
gives the shifted operator plus lambda_(n-1) on u_x (or u_y), and
``shifted(r, s)`` is r such x-steps followed by s y-steps.

``pearson_numerators`` and ``pearson_shifts`` are pinned to symbolic forms:
(beta, gamma) = adj(A) v solves the Pearson system A (beta, gamma)^T =
alpha v of the self-adjoint form, and one step of ``shifted`` adds the pair
of ``pearson_shifts``.  Every coefficient of those polynomials has degree at
most 2 in the eleven coefficients, so agreement on the 78 points of the
order-2 simplex lattice (nonnegative integer coefficients summing to at most
2), which is unisolvent for such polynomials, is agreement everywhere.

The package imports no ``sympy``; it is a test-only oracle, listed in the
``test`` extra, and this module is skipped where it is not installed.
"""

import pytest

sp = pytest.importorskip("sympy")

from itertools import combinations_with_replacement  # noqa: E402

from opde import monic  # noqa: E402
from opde.pde import (HypergeometricPDE, pearson_numerators,  # noqa: E402
                      pearson_shifts)

COEFFS = sp.symbols("a b1 c1 b2 c2 b3 c3 d3 e f1 f2")
a, b1, c1, b2, c2, b3, c3, d3, e, f1, f2 = COEFFS
n, i, p, q, x, y, u, v = sp.symbols("n i p q x y u v")
PDE = HypergeometricPDE(*COEFFS)


def _operator(pde, w):
    """D w for the equation ``pde``, on any expression w in x and y."""
    a, b1, c1, b2, c2, b3, c3, d3, e, f1, f2 = pde
    return ((a * x**2 + b1 * x + c1) * sp.diff(w, x, 2)
            + 2 * (a * x * y + b3 * x + c3 * y + d3) * sp.diff(w, x, y)
            + (a * y**2 + b2 * y + c2) * sp.diff(w, y, 2)
            + (e * x + f1) * sp.diff(w, x) + (e * y + f2) * sp.diff(w, y))


def _stencil():
    """D x^p y^q for symbolic exponents, as {(dk, dl): c} for the terms
    c x^(p-dk) y^(q-dl); read off by differentiating, not by hand."""
    mono = x**p * y**q
    laurent = sp.expand(sp.powsimp(sp.expand(_operator(PDE, mono) / mono)))
    return dict(sp.Poly(sp.expand(laurent.subs({x: 1 / u, y: 1 / v})), u, v).terms())


STENCIL = _stencil()


def _eigenvalue(t):
    return PDE.eigenvalue(t)


def _closed_forms(b3_step=1, c1_weight=1):
    """{(s, o): G_{n,n-s}[i][i-o]}, the nonzero entries of row i of the top
    three layers of P_n, as ``subleading_matrices`` computes them.  The
    keywords apply the two mutations: the b3 factor 2(n - b3_step - i) of
    the mixed entry, and the weight of the c1 term."""
    w1 = a * (2 * n - 2) + e
    w2 = a * (2 * n - 3) + e
    dx = (n - i - 1) * b1 + 2 * i * c3 + f1
    dy = (i - 1) * b2 + 2 * (n - i) * b3 + f2
    mixed = (2 * d3 * w1
             + dx * ((i - 1) * b2 + 2 * (n - b3_step - i) * b3 + f2)
             + dy * ((n - 1 - i) * b1 + 2 * (i - 1) * c3 + f1))
    return {
        (0, 0): sp.Integer(1),
        (1, 0): (n - i) * dx / w1,
        (1, 1): i * dy / w1,
        (2, 0): (n - i) * (n - i - 1) * (c1_weight * w1 * c1 + dx * (dx - b1)) / (2 * w1 * w2),
        (2, 1): i * (n - i) * mixed / (2 * w1 * w2),
        (2, 2): i * (i - 1) * (w1 * c2 + dy * (dy - b2)) / (2 * w1 * w2),
    }


def _residual(forms, s, o):
    """The coefficient of x^(n-s-i+o) y^(i-o) in entry i of
    D P_n + lambda_n P_n, from the top three layers of P_n."""
    total = 0
    for (s0, o0), g in forms.items():
        dl = o - o0
        dk = s - s0 - dl
        if dk >= 0 and dl >= 0 and (dk, dl) in STENCIL:
            total += g * STENCIL[dk, dl].subs({p: n - s0 - i + o0, q: i - o0},
                                              simultaneous=True)
        if (s0, o0) == (s, o):
            total += g * _eigenvalue(n)
    return sp.cancel(sp.together(total))


LOWER_LAYERS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


def test_eigenvalue_is_minus_the_operator_diagonal():
    # D x^p y^q = -lambda_(p+q) x^p y^q + lower terms, for every p, q
    assert sp.expand(STENCIL[0, 0] + _eigenvalue(p + q)) == 0


def test_subleading_closed_forms_solve_the_equation():
    forms = _closed_forms()
    for s, o in LOWER_LAYERS:
        assert _residual(forms, s, o) == 0, (s, o)


@pytest.mark.parametrize("mutation, layer", [
    ({"b3_step": 0}, (2, 1)),    # 2(n - i) b3 for 2(n - 1 - i) b3
    ({"c1_weight": 2}, (2, 0)),  # the c1 term doubled
], ids=["b3-factor", "doubled-c1"])
def test_mutated_closed_form_leaves_a_residual(mutation, layer):
    residual = _residual(_closed_forms(**mutation), *layer)
    # nonzero at a point, so not a zero the simplifier missed
    point = dict(zip(COEFFS, [-1, 2, 3, 5, 7, 11, 13, 17, -19, 23, 29]), n=6, i=2)
    assert residual.subs(point) != 0


class _Symbol:
    """A coefficient ``subleading_matrices`` reads as the fraction sym / 1."""

    def __init__(self, sym):
        self.numerator, self.denominator = sym, 1


def test_subleading_matrices_is_the_proven_closed_form(monkeypatch):
    class Entries:
        @staticmethod
        def from_integers(rows, den):
            return [[(entry, den) for entry in row] for row in rows]

    monkeypatch.setattr(monic, "RationalMatrix", Entries)
    pde = HypergeometricPDE(*map(_Symbol, COEFFS))
    forms = _closed_forms()
    for deg in range(1, 9):
        layers = [m for m in monic.subleading_matrices(pde, deg) if m is not None]
        for s, rows in enumerate(layers, start=1):
            for row, entries in enumerate(rows):
                for col, (num, den) in enumerate(entries):
                    form = sp.sympify(forms.get((s, row - col), 0))
                    form_num, form_den = sp.fraction(sp.together(
                        form.subs({n: deg, i: row}, simultaneous=True)))
                    assert sp.expand(num * form_den - form_num * den) == 0, (deg, s, row, col)


def _step_residual(axis):
    """d/dx_axis (D u + lambda_n u) minus D' u' + lambda'_(n-1) u', for a
    symbolic function u, u' its derivative along the axis and D', lambda'
    read off ``PDE.shifted`` one step along that axis."""
    func = sp.Function("u")(x, y)
    var, step = ((x, (1, 0)), (y, (0, 1)))[axis - 1]
    shifted = PDE.shifted(*step)
    du = sp.diff(func, var)
    lhs = sp.diff(_operator(PDE, func) + PDE.eigenvalue(n) * func, var)
    return sp.expand(lhs - _operator(shifted, du) - shifted.eigenvalue(n - 1) * du)


@pytest.mark.parametrize("axis", [1, 2])
def test_shifted_is_the_derivative_equation(axis):
    assert _step_residual(axis) == 0


def test_shifted_is_one_step_at_a_time():
    # shifted(r, s) is r x-steps, then s y-steps
    for r in range(4):
        for s in range(4):
            stepped = PDE
            for step in [(1, 0)] * r + [(0, 1)] * s:
                stepped = stepped.shifted(*step)
            for got, want in zip(PDE.shifted(r, s), stepped):
                assert sp.expand(got - want) == 0, (r, s)


def test_mutated_shift_leaves_a_residual(monkeypatch):
    # f1 shifted by 2 r b1 instead of r b1
    exact = HypergeometricPDE.shifted

    def mutated(self, r, s):
        return exact(self, r, s)._replace(f1=self.f1 + 2 * r * self.b1 + 2 * s * self.c3)

    monkeypatch.setattr(HypergeometricPDE, "shifted", mutated)
    point = dict(zip(COEFFS, [-1, 2, 3, 5, 7, 11, 13, 17, -19, 23, 29]), n=6, x=3, y=5)
    assert _step_residual(1).subs(point) != 0
    # nor does one step add the x-pair of pearson_shifts to beta
    pearson_step = _step(PDE, (1, 0))[0] - sp.diff(_principal_part(PDE).det(), x)
    assert pearson_step.subs(point) != 0


def _principal_part(pde):
    """A = [[xx, xy], [xy, yy]], the halved second-order coefficients."""
    a, b1, c1, b2, c2, b3, c3, d3 = pde[:8]
    return sp.Matrix([[a * x**2 + b1 * x + c1, a * x * y + b3 * x + c3 * y + d3],
                      [a * x * y + b3 * x + c3 * y + d3, a * y**2 + b2 * y + c2]])


def _pearson_system(pde):
    """(A, v) of the self-adjoint form's Pearson system A (beta, gamma)^T =
    alpha v: v is the first-order coefficients minus the divergence of A's
    rows."""
    big_a = _principal_part(pde)
    v = sp.Matrix([pde.e * x + pde.f1, pde.e * y + pde.f2]) - sp.Matrix(
        [sp.diff(big_a[k, 0], x) + sp.diff(big_a[k, 1], y) for k in range(2)])
    return big_a, v


def _pearson(pde):
    """(beta, gamma) = adj(A) v."""
    big_a, v = _pearson_system(pde)
    return big_a.adjugate() * v


def _step(pde, step):
    """What one step of ``shifted`` adds to the symbolic (beta, gamma)."""
    return (_pearson(pde.shifted(*step)) - _pearson(pde)).applyfunc(sp.expand)


def test_pearson_numerators_solve_the_pearson_system():
    big_a, v = _pearson_system(PDE)
    residual = big_a * _pearson(PDE) - big_a.det() * v
    assert residual.applyfunc(sp.expand) == sp.zeros(2, 1)


def test_one_shift_step_adds_a_principal_part_pair():
    # the x-pair is (d(alpha)/dx, 2 xx d(xy)/dx - xy d(xx)/dx), the y-pair
    # (2 yy d(xy)/dy - xy d(yy)/dy, d(alpha)/dy): free of e, f1 and f2
    big_a = _principal_part(PDE)
    alpha = big_a.det()
    xx, xy, yy = big_a[0, 0], big_a[0, 1], big_a[1, 1]
    want = {(1, 0): [sp.diff(alpha, x), 2 * xx * sp.diff(xy, x) - xy * sp.diff(xx, x)],
            (0, 1): [2 * yy * sp.diff(xy, y) - xy * sp.diff(yy, y), sp.diff(alpha, y)]}
    for step, pair in want.items():
        assert list(_step(PDE, step)) == [sp.expand(w) for w in pair], step
    # shifted(r, s) adds r x-pairs and s y-pairs
    for r in range(3):
        for s in range(3):
            got = _pearson(PDE.shifted(r, s)) - _pearson(PDE)
            stepped = r * _step(PDE, (1, 0)) + s * _step(PDE, (0, 1))
            assert (got - stepped).applyfunc(sp.expand) == sp.zeros(2, 1), (r, s)


def _simplex_points():
    """The 78 coefficient points with nonnegative entries summing to at most 2."""
    for picks in [()] + [c for k in (1, 2) for c in combinations_with_replacement(range(11), k)]:
        point = [0] * 11
        for k in picks:
            point[k] += 1
        yield point


def _as_sympy(poly):
    return sum((sp.Rational(c.numerator, c.denominator) * x**i * y**j
                for (i, j), c in poly.terms()), sp.Integer(0))


def test_production_pearson_forms_match_on_a_unisolvent_set():
    points = list(_simplex_points())
    assert len(points) == 78 == len({tuple(pt) for pt in points})
    forms = [_pearson(PDE), _step(PDE, (1, 0)), _step(PDE, (0, 1))]
    for point in points:
        values = dict(zip(COEFFS, point))
        pde = HypergeometricPDE.from_coeffs(*point)
        produced = [pearson_numerators(pde), *pearson_shifts(pde)]
        for form, pair in zip(forms, produced):
            for want, got in zip(form, pair):
                assert sp.expand(want.subs(values) - _as_sympy(got)) == 0, point
