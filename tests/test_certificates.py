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

The package imports no ``sympy``; it is a test-only oracle, listed in the
``test`` extra, and this module is skipped where it is not installed.
"""

import pytest

sp = pytest.importorskip("sympy")

from opde import monic  # noqa: E402
from opde.pde import HypergeometricPDE  # noqa: E402

COEFFS = sp.symbols("a b1 c1 b2 c2 b3 c3 d3 e f1 f2")
a, b1, c1, b2, c2, b3, c3, d3, e, f1, f2 = COEFFS
n, i, p, q, x, y, u, v = sp.symbols("n i p q x y u v")


def _stencil():
    """D x^p y^q for symbolic exponents, as {(dk, dl): c} for the terms
    c x^(p-dk) y^(q-dl); read off by differentiating, not by hand."""
    mono = x**p * y**q
    image = ((a * x**2 + b1 * x + c1) * sp.diff(mono, x, 2)
             + 2 * (a * x * y + b3 * x + c3 * y + d3) * sp.diff(mono, x, y)
             + (a * y**2 + b2 * y + c2) * sp.diff(mono, y, 2)
             + (e * x + f1) * sp.diff(mono, x) + (e * y + f2) * sp.diff(mono, y))
    laurent = sp.expand(sp.powsimp(sp.expand(image / mono)))
    return dict(sp.Poly(sp.expand(laurent.subs({x: 1 / u, y: 1 / v})), u, v).terms())


STENCIL = _stencil()


def _eigenvalue(t):
    return HypergeometricPDE(*COEFFS).eigenvalue(t)


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
