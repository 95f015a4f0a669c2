import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from opde import rodrigues
from opde.errors import DegreeMismatch, NotReducible
from opde.families import (AppellParams, appell_pde, appell_phi_case,
                           appell_weight, connection_F, monic_appell_vector,
                           pochhammer)
from opde.matrix import RationalMatrix
from opde.pde import HypergeometricPDE, apply_operator
from opde.poly import ZERO, BivariatePoly, X, Y
from opde.rodrigues import (WeightedExpr, derivative_plan, rodrigues_eval,
                            rodrigues_table, weighted_diff)
from opde.vectors import PolyVector, expansion_matrices
from opde.weights import PhiCase, WeightSpec, classify_phi, shifted_weight

DISK = 1 - X**2 - Y**2


def test_weighted_diff_power_rule():
    a = Fraction(7, 3)
    expr = WeightedExpr((X,), (a,), BivariatePoly.const(1))
    out = weighted_diff(expr, 1)
    assert out.exponents == (a - 1,)
    assert out.poly == BivariatePoly.const(a)


def test_weighted_diff_product_rule_vs_direct():
    # alpha = 2, c = 1: the expression is the honest polynomial x^2 (1-x-y)
    expr = WeightedExpr((X, 1 - X - Y), (Fraction(2), Fraction(1)),
                        BivariatePoly.const(1))
    out = weighted_diff(expr, 1)
    assert out.exponents == (1, 0)
    direct = (X**2 * (1 - X - Y)).diff(1)
    assert X * out.poly == direct  # x^1 * poly reassembles the derivative
    # generic exponents: poly part carries the cleared product rule
    a, c = Fraction(5, 2), Fraction(1, 3)
    out = weighted_diff(WeightedExpr((X, 1 - X - Y), (a, c), BivariatePoly.const(1)), 1)
    assert out.poly == a * (1 - X - Y) - c * X


def test_weighted_diff_ignores_unrelated_axis():
    expr = WeightedExpr((X,), (Fraction(3, 2),), X + 1)
    out = weighted_diff(expr, 2)
    assert out.exponents == (Fraction(3, 2),)
    assert out.poly == BivariatePoly.zero()


def test_weighted_diff_leaves_inactive_factors():
    # along x: the exponent-0 factor x and the x-free factor y are constants,
    # so neither exponent moves and neither enters the polynomial part
    expr = WeightedExpr((X, Y, DISK), (Fraction(0), Fraction(3, 2), Fraction(5, 2)),
                        X * Y + 1)
    out = weighted_diff(expr, 1)
    assert out.exponents == (0, Fraction(3, 2), Fraction(3, 2))
    assert out.poly == DISK * Y + Fraction(5, 2) * (-2 * X) * (X * Y + 1)
    # along y every factor but x moves
    out = weighted_diff(expr, 2)
    assert out.exponents == (0, Fraction(1, 2), Fraction(3, 2))
    assert out.poly == (Y * DISK * X + Fraction(3, 2) * DISK * (X * Y + 1)
                        + Fraction(5, 2) * Y * (-2 * Y) * (X * Y + 1))


def test_weighted_diff_fraction_work_is_exponent_bookkeeping(fraction_ops):
    # the polynomial part is combined on int numerators: the only Fraction
    # arithmetic is e_i - 1 per active factor, whatever the polynomial's size
    factors = (X, Y, DISK)
    exps = (Fraction(0), Fraction(3, 2), Fraction(5, 2))
    polys = (X * Y + 1, (X + 2 * Y - Fraction(1, 3))**12 * (Y - Fraction(2, 7))**5)
    for axis, active in ((1, 1), (2, 2)):
        counts = []
        for poly in polys:
            expr = WeightedExpr(factors, exps, poly)
            weighted_diff(expr, axis)  # fills the product-rule cache
            with fraction_ops() as count:
                weighted_diff(expr, axis)
            counts.append(count[0])
        assert counts == [active, active]


def _disk_equation():
    return HypergeometricPDE.from_coeffs(a=-1, c1=1, c2=1, e=-4)


def _instance(which, p=None):
    if which == "disk":
        return WeightSpec(0, 0, ((DISK, Fraction(1, 2)),)), classify_phi(_disk_equation())[0]
    return appell_weight(p), appell_phi_case(p)


@pytest.mark.parametrize("which, n, m, table", [
    ("disk", 4, 3, False), ("triangle", 3, 3, False),
    ("disk", 4, 3, True), ("triangle", 3, 3, True),
], ids=["disk-4-3", "triangle-3-3", "disk-table-7", "triangle-table-6"])
def test_polynomial_part_stays_within_output_degree(which, n, m, table, p23, monkeypatch):
    # no derivative may grow the polynomial part beyond what the output needs
    w, case = _instance(which, p23)
    degrees = []

    def traced(expr, axis):
        out = weighted_diff(expr, axis)
        degrees.append(out.poly.degree())
        return out

    monkeypatch.setattr(rodrigues, "weighted_diff", traced)
    if table:
        outputs = rodrigues_table(w, case, n + m)
        assert all(p.degree() == a + b for (a, b), p in outputs.items())
        # one chain of t steps per pair on the triangle; on the disk every
        # pair of total degree t with n >= m shares one derivative tree and
        # the n < m outputs are mirrored (87 steps with every pair planned)
        pairs = sum(t * (t + 1) for t in range(n + m + 1))
        assert len(degrees) == (46 if which == "disk" else pairs)
    else:
        assert rodrigues_eval(w, case, n, m).degree() == n + m
        assert len(degrees) == n + m
    assert max(degrees) <= n + m


def _lattice(targets):
    """Every node (a, b) below some target, the root included."""
    return {(a, b) for n, m in targets for a in range(n + 1) for b in range(m + 1)}


_TARGETS = st.one_of(
    st.sets(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 8 - n))),
            min_size=1),
    st.integers(0, 8).flatmap(
        lambda t: st.sets(st.integers(0, t), min_size=1).map(
            lambda ms: {(t - m, m) for m in ms})),
)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(_TARGETS)
def test_plan_reaches_every_target_one_unit_step_at_a_time(targets):
    derived = {(0, 0)}
    steps = derivative_plan(sorted(targets))
    for parent, axis, child in steps:
        assert parent in derived and child not in derived
        a, b = parent
        assert child == ((a + 1, b) if axis == 1 else (a, b + 1))
        derived.add(child)
    assert targets <= derived
    assert len(steps) <= len(_lattice(targets)) - 1


def test_plan_antidiagonal_counts():
    counts = [len(derivative_plan([(t - m, m) for m in range(t + 1)])) for t in range(8)]
    assert counts == [0, 2, 5, 8, 12, 16, 20, 24]
    # the full lattice below total t takes (t + 1)(t + 2)/2 - 1 steps
    full = [len(_lattice([(t - m, m) for m in range(t + 1)])) - 1 for t in range(19)]
    tree = [len(derivative_plan([(t - m, m) for m in range(t + 1)])) for t in range(19)]
    assert (sum(full), sum(tree)) == (1311, 687)


def test_plan_single_target_is_the_y_then_x_chain():
    assert derivative_plan([(2, 1)]) == [((0, 0), 2, (0, 1)), ((0, 1), 1, (1, 1)),
                                         ((1, 1), 1, (2, 1))]
    assert derivative_plan([(0, 0)]) == []
    with pytest.raises(ValueError):
        derivative_plan([(1, -1)])


def test_disk_table_step_count_at_18(monkeypatch):
    # the trees reach only the n >= m pairs (687 steps with every pair
    # planned), and only those are divided out: each m > n output is the
    # swap of the (n, m) output
    w, case = _instance("disk")
    degrees = []
    divisions = []
    divide = rodrigues._divide_out

    def traced(expr, axis):
        out = weighted_diff(expr, axis)
        degrees.append(out.poly.degree())
        return out

    def counted(expr, *args):
        divisions.append(expr)
        return divide(expr, *args)

    monkeypatch.setattr(rodrigues, "weighted_diff", traced)
    monkeypatch.setattr(rodrigues, "_divide_out", counted)
    assert len(rodrigues_table(w, case, 18)) == 190
    assert (len(degrees), max(degrees)) == (356, 18)
    assert len(divisions) == 100


_SYNTHETIC = {
    # weight (1 - x^2)^(1/2) (1 - y^2)^(1/2): the swap exchanges its two factors
    "product": (WeightSpec(0, 0, ((1 - X**2, Fraction(1, 2)), (1 - Y**2, Fraction(1, 2)))),
                PhiCase("synthetic", "", 1 - X**2, 1 - Y**2)),
    # the (n, m) output is a multiple of x^n y^m, and so is the polynomial
    # part of its derivative over x^n y^m: a mirrored expression must move
    # the exponents as well as swap the polynomial part
    "squares": (WeightSpec(Fraction(1, 2), Fraction(1, 2)),
                PhiCase("synthetic", "", X**2, Y**2)),
    # c10 = 2 and c01 = 1: the swap carries phi10 = 2x to 2y, not to phi01
    "scaled": (WeightSpec(Fraction(1, 2), Fraction(1, 2)), PhiCase("synthetic", "", 2 * X, Y)),
    # the swap exchanges the two factors but not their exponents
    "unequal-exponents": (WeightSpec(0, 0, ((1 - X, Fraction(1, 2)), (1 - Y, Fraction(1, 3)))),
                          PhiCase("synthetic", "", 1 - X, 1 - Y)),
    # the disk equation's factor pair with another mirror-invariant weight
    "disk-minus-1/3": (WeightSpec(0, 0, ((DISK, Fraction(-1, 3)),)),
                       classify_phi(_disk_equation())[0]),
}


@pytest.mark.parametrize("which, p, top", [
    ("disk", None, 10),
    ("triangle", AppellParams(2, 3), 8),
    ("triangle", AppellParams(Fraction(3, 2), Fraction(5, 7)), 8),
    # mirror-invariant: every class holds one pair, mirrored across classes
    ("triangle", AppellParams(Fraction(3, 2), Fraction(3, 2)), 8),
    ("triangle", AppellParams(Fraction(1, 2), Fraction(1, 2)), 8),
    ("disk-minus-1/3", None, 10),
    ("product", None, 8),
    ("squares", None, 8),
], ids=["disk", "triangle-2-3", "triangle-3/2-5/7", "triangle-3/2-3/2", "triangle-1/2-1/2",
        "disk-minus-1/3", "product", "squares"])
def test_table_matches_per_pair_oracle(which, p, top):
    w, case = _SYNTHETIC[which] if which in _SYNTHETIC else _instance(which, p)
    table = rodrigues_table(w, case, top)
    pairs = [(t - m, m) for t in range(top + 1) for m in range(t + 1)]
    assert list(table) == pairs
    for n, m in pairs:
        assert table[(n, m)] == rodrigues_eval(w, case, n, m)
    assert rodrigues_table(w, case, 0) == {(0, 0): BivariatePoly.const(1)}


@pytest.mark.parametrize("which, p, mirror", [
    ("disk", None, True),
    ("triangle", AppellParams(Fraction(3, 2), Fraction(3, 2)), True),
    ("product", None, True),
    ("squares", None, True),
    ("triangle", AppellParams(2, 3), False),
    ("scaled", None, False),
    ("unequal-exponents", None, False),
], ids=["disk", "triangle-3/2-3/2", "product", "squares", "triangle-2-3", "scaled",
        "unequal-exponents"])
def test_mirror_shortcut_selection(which, p, mirror):
    w, case = _SYNTHETIC[which] if which in _SYNTHETIC else _instance(which, p)
    assert rodrigues._mirror(w, case) is mirror


@pytest.mark.parametrize("alpha, beta", [(Fraction(3, 2), Fraction(5, 7)), (2, 3)],
                         ids=["3/2-5/7", "2-3"])
def test_table_is_swap_covariant(alpha, beta):
    # the identity the mirror shortcut rests on, through the full path at two
    # points where neither side is mirror-invariant: the table at (beta, alpha)
    # is the swap of the table at (alpha, beta), with (n, m) <-> (m, n)
    p, q = AppellParams(alpha, beta), AppellParams(beta, alpha)
    assert rodrigues._mirror(*_instance("triangle", p)) is False
    table = rodrigues_table(*_instance("triangle", p), 8)
    swapped = rodrigues_table(*_instance("triangle", q), 8)
    assert len(table) == 45
    assert all(swapped[(m, n)] == poly.swap() for (n, m), poly in table.items())


_FAILING = {
    "not-reducible": (WeightSpec(0, 0, ((1 - X - Y, Fraction(1, 2)),)),
                      PhiCase("synthetic", "", X, Y)),
    "not-divisible": (WeightSpec(0, 0, ((DISK, Fraction(1, 2)),)),
                      PhiCase("synthetic", "", 1 + X**2 + Y**2, 1 + X**2 + Y**2)),
    "degree-mismatch": (WeightSpec(Fraction(1, 2), 0),
                        PhiCase("synthetic", "", X, BivariatePoly.const(1))),
    # outputs that collapse to zero later in the order: at (3, 0) on the
    # disk, where every pair of total degree 3 shares one chain, and at (2, 1)
    # on the triangle
    "disk-collapse": (WeightSpec(0, 0, ((DISK, Fraction(-3)),)),
                      PhiCase("synthetic", "", DISK, DISK)),
    "triangle-collapse": (WeightSpec(-4, -1, ((1 - X - Y, Fraction(-3)),)),
                          appell_phi_case(AppellParams(2, 3))),
}


@pytest.mark.parametrize("name", list(_FAILING))
def test_table_fails_like_the_per_pair_loop(name, monkeypatch):
    # the table divides out the pairs it derives (n >= m when _mirror holds)
    # in key order, each from the expression the per-pair loop divides, and
    # fails at the same pair with the same exception
    w, case = _FAILING[name]
    pairs = [(t - m, m) for t in range(4) for m in range(t + 1)]
    derived = [(n, m) for n, m in pairs if n >= m or not rodrigues._mirror(w, case)]
    divide = rodrigues._divide_out

    def run(evaluate):
        # the expression each output divides, in order, up to the failing one
        seen = []

        def spy(expr, *args):
            seen.append((expr.exponents, expr.poly))
            return divide(expr, *args)

        monkeypatch.setattr(rodrigues, "_divide_out", spy)
        with pytest.raises((NotReducible, DegreeMismatch)) as info:
            evaluate()
        return type(info.value), str(info.value), seen

    def per_pair():
        for n, m in pairs:
            rodrigues_eval(w, case, n, m)

    *table_error, table_seen = run(lambda: rodrigues_table(w, case, 3))
    *loop_error, loop_seen = run(per_pair)
    assert table_error == loop_error
    loop_pairs = pairs[:len(loop_seen)]
    assert derived[len(table_seen) - 1] == loop_pairs[-1]
    assert table_seen == [e for pair, e in zip(loop_pairs, loop_seen) if pair in derived]


@pytest.mark.parametrize("phi10, phi01", [(ZERO, Y), (X, ZERO)], ids=["phi10", "phi01"])
def test_zero_phi_rejected(phi10, phi01):
    with pytest.raises(ValueError, match="zero polynomial"):
        rodrigues_eval(WeightSpec(0, 0), PhiCase("s", "", phi10, phi01), 1, 0)


def test_rodrigues_basic_values(p11):
    w = appell_weight(p11)
    case = appell_phi_case(p11)
    assert rodrigues_eval(w, case, 1, 0) == 1 - 2 * X - Y
    assert rodrigues_eval(w, case, 0, 0) == BivariatePoly.const(1)


def test_rodrigues_proportional_to_monic():
    p = AppellParams(2, 1)
    out = rodrigues_eval(appell_weight(p), appell_phi_case(p), 0, 1)
    assert out.degree() == 1
    target = monic_appell_vector(p, 1)
    g1, g0 = expansion_matrices(PolyVector([out]), 1)
    # solve out = c1 * target[0] + c2 * target[1] exactly; here the monic
    # expansion is triangular so the connection row is just (g1 | shift)
    row = [g1[0, 0], g1[0, 1]]
    recon = row[0] * target[0] + row[1] * target[1]
    const_fix = out - recon
    assert const_fix.degree() <= 0
    recon = recon + const_fix
    assert recon == out and (row[0], row[1]) != (0, 0)


def test_rodrigues_eigensolutions_and_span(p23):
    w = appell_weight(p23)
    case = appell_phi_case(p23)
    pde = appell_pde(p23)
    for total in range(4):
        vec = PolyVector([rodrigues_eval(w, case, total - m, m) for m in range(total + 1)])
        for poly in vec:
            assert apply_operator(pde, total, poly).is_zero()
        lead = expansion_matrices(vec, total)[0]
        assert lead.det() != 0  # linear independence of the degree layer


def test_rodrigues_connection_matches_closed_form(p23):
    # the (N+1)-vector of Rodrigues outputs is an invertible combination of
    # the monic vector, with matrix diag((alpha)_{N-i} (beta)_i) @ G^F
    a, b = p23.alpha, p23.beta
    w = appell_weight(p23)
    case = appell_phi_case(p23)
    for big in range(4):
        rvec = PolyVector([rodrigues_eval(w, case, big - i, i) for i in range(big + 1)])
        scale = RationalMatrix.from_function(
            big + 1, big + 1,
            lambda i, k: pochhammer(a, big - i) * pochhammer(b, i) if i == k else 0)
        m = scale @ connection_F(p23, big)
        assert m.det() != 0
        target = monic_appell_vector(p23, big)
        for i in range(big + 1):
            acc = BivariatePoly.zero()
            for k in range(big + 1):
                acc = acc + m[i, k] * target[k]
            assert acc == rvec[i]


def _derivative(w, case, n, m, r, s):
    """Rodrigues form of the (r, s) derivative of the (n, m) output."""
    return rodrigues_eval(shifted_weight(w, case, r, s), case, n - r, m - s)


def test_rodrigues_derivative_reduces_at_zero_order(p23):
    w = appell_weight(p23)
    case = appell_phi_case(p23)
    assert _derivative(w, case, 2, 1, 0, 0) == rodrigues_eval(w, case, 2, 1)


def test_rodrigues_derivative_is_always_an_eigensolution(p11, p23):
    # the formula's unconditional guarantee: an exact polynomial eigensolution
    # of the derived equation, for every index tuple
    for p in (p11, p23):
        w, case, pde = appell_weight(p), appell_phi_case(p), appell_pde(p)
        for n in range(3):
            for m in range(3):
                for r in range(n + 1):
                    for s in range(m + 1):
                        if n + m == 0:
                            continue
                        out = _derivative(w, case, n, m, r, s)
                        eq = pde.shifted(r, s)
                        assert apply_operator(eq, n + m - r - s, out).is_zero()


def test_rodrigues_derivative_consistency(p11, p23):
    # proportionality to the literal mixed derivative holds on univariate
    # chains (n = 0 or m = 0), at full depth (r, s) = (n, m), and trivially
    # at (0, 0); see ERRATA.md for why it cannot hold in between
    for p in (p11, p23):
        w = appell_weight(p)
        case = appell_phi_case(p)
        for (n, m, r, s) in [(1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 2, 0),
                             (0, 2, 0, 1), (1, 1, 1, 1), (2, 1, 2, 1),
                             (2, 2, 2, 2)]:
            via_formula = _derivative(w, case, n, m, r, s)
            direct = rodrigues_eval(w, case, n, m)
            for _ in range(r):
                direct = direct.diff(1)
            for _ in range(s):
                direct = direct.diff(2)
            assert via_formula.degree() == n + m - r - s
            # proportional by a nonzero rational: match on the leading term
            le = direct.leading_exponent()
            ratio = via_formula.coefficient(*le) / direct.coefficient(*le)
            assert ratio != 0
            assert via_formula == direct * ratio


def test_rodrigues_derivative_mixed_orders_pick_other_eigensolutions(p11):
    # a genuinely mixed partial of a genuinely bivariate member is a
    # *different* eigensolution than the formula output: the derived
    # equation's eigenspace has dimension > 1 and they both live in it
    w, case = appell_weight(p11), appell_phi_case(p11)
    via_formula = _derivative(w, case, 2, 1, 1, 1)
    direct = rodrigues_eval(w, case, 2, 1).diff(1).diff(2)
    le = direct.leading_exponent()
    ratio = via_formula.coefficient(*le) / direct.coefficient(*le)
    assert via_formula != direct * ratio


@pytest.mark.parametrize("which, digest", [
    ("disk", "94a38bf50d977a1af0f2d0c4b8475fdbb0cbcfa97864e0cdd84a243ec21c96a3"),
    ("triangle", "1a14403a900b9fa9538880a0b628ebadadd106a9b1c1a21471e821fb2d5268b4"),
], ids=["disk", "triangle"])
def test_rodrigues_derivative_outputs_are_pinned(which, digest):
    # every (n, m, r, s) output with n, m <= 3; the digests were taken with
    # rodrigues_derivative_eval(w, case, n, m, r, s), which the shifted
    # weight replaced
    w, case = _instance(which, AppellParams(Fraction(3, 2), Fraction(5, 7)))
    lines = []
    for n in range(4):
        for m in range(4):
            for r in range(n + 1):
                for s in range(m + 1):
                    out = _derivative(w, case, n, m, r, s)
                    text = " ".join(f"{i},{j},{c}" for (i, j), c in sorted(out.terms()))
                    lines.append(f"{n} {m} {r} {s}: {text}")
    assert len(lines) == 100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_rodrigues_derivative_constant_output(p11):
    out = _derivative(appell_weight(p11), appell_phi_case(p11), 1, 0, 1, 0)
    assert out.degree() == 0
    assert out.coefficient(0, 0) != 0


def test_weighted_diff_mixed_partials_commute():
    expr = WeightedExpr((X, Y, 1 - X - Y),
                        (Fraction(5, 2), Fraction(1, 3), Fraction(2)),
                        X + 2 * Y - 1)
    xy = weighted_diff(weighted_diff(expr, 1), 2)
    yx = weighted_diff(weighted_diff(expr, 2), 1)
    assert xy.exponents == yx.exponents
    assert xy.poly == yx.poly


def test_not_reducible_outside_supported_class():
    w = WeightSpec(0, 0, ((1 - X - Y, Fraction(1, 2)),))
    case = PhiCase("synthetic", "", X, Y)
    with pytest.raises(NotReducible):
        rodrigues_eval(w, case, 1, 0)


def test_not_reducible_names_the_factor_power():
    # a weight that is not the equation's: the factor is printed in parentheses
    w = WeightSpec(0, 0, ((1 - X**2 - Y**2, Fraction(1, 2)),))
    phi = 1 + X**2 + Y**2
    with pytest.raises(NotReducible) as info:
        rodrigues_eval(w, PhiCase("synthetic", "", phi, phi), 1, 1)
    assert str(info.value) == "polynomial part is not divisible by (-x^2 - y^2 + 1)^2"


def test_degree_mismatch_on_degenerate_parameters():
    # weight x^(1/2) with factor x: the first derivative already collapses
    w = WeightSpec(Fraction(1, 2), 0)
    case = PhiCase("synthetic", "", X, BivariatePoly.const(1) + Y * 0)
    with pytest.raises(DegreeMismatch):
        rodrigues_eval(w, case, 1, 0)
