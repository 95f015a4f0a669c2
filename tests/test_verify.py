import json
from fractions import Fraction
from time import perf_counter, sleep

import pytest

from opde.families import AppellParams, appell_pde
from opde.pde import HypergeometricPDE
from opde.poly import X, Y
from opde.vectors import PolyVector
from opde.verify import SuiteResult, run_verification


def test_all_suites_pass_for_monic(p23):
    results = run_verification(appell_pde(p23), 3)
    assert all(r.passed for r in results), [r.line() for r in results]
    names = [r.name for r in results]
    for expected in ("eigen-residual", "construction-routes", "ttrr-identity",
                     "derivative-family-ttrr", "structure-identity",
                     "derivative-representation", "golden-agreement",
                     "connections", "biorthogonality"):
        assert expected in names


def test_family_selectors(p11):
    pde = appell_pde(p11)
    for family in ("appell-F", "koornwinder"):
        results = run_verification(pde, 3, family=family)
        assert all(r.passed for r in results), \
            (family, [r.line() for r in results if not r.passed])
        names = [r.name for r in results]
        assert "ttrr-identity" in names
        assert "derivative-representation" in names
        assert "orthogonality-blocks" in names
        # monic-only suites are absent for the other families
        assert "golden-agreement" not in names


def test_fault_injection_pinpoints(p11):
    results = run_verification(appell_pde(p11), 2, corrupt="ttrr-b1")
    failing = [r for r in results if not r.passed]
    assert len(failing) == 1
    assert failing[0].name == "ttrr-identity"
    assert "n=1 axis=1" in failing[0].failures[0]


@pytest.mark.parametrize("big_n, corrupt", [(0, "ttrr-b1"), (2, "ttrr-b2"), (2, "")],
                         ids=["degree-0", "unknown", "empty"])
def test_fault_that_cannot_be_injected_is_rejected(p11, big_n, corrupt):
    with pytest.raises(ValueError):
        run_verification(appell_pde(p11), big_n, corrupt=corrupt)


@pytest.mark.parametrize("family", ["monic", "koornwinder"])
def test_negative_degree_bound_is_rejected(p23, family, monkeypatch):
    # rejected before any suite runs, as build_monic rejects it
    def no_suite(self, name, note=None):
        raise AssertionError(f"suite {name} opened")

    monkeypatch.setattr(SuiteResult, "__init__", no_suite)
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        run_verification(appell_pde(p23), -1, family=family)


def test_agree_fails_on_a_length_mismatch():
    suite = SuiteResult("lengths")
    short, long = PolyVector([X, Y]), PolyVector([X, Y, X * Y])
    suite.agree(short, long, "n=1")
    suite.agree(long, short, "n=2")
    suite.agree(long, long, "n=3")
    assert suite.checks == 3
    assert suite.failures == ["n=1 length=2 against 3", "n=2 length=3 against 2"]


def test_unknown_family_is_rejected(p23):
    # every name other than monic and appell-F once meant Koornwinder
    with pytest.raises(ValueError, match="'bogus': choose one of monic, appell-F, koornwinder"):
        run_verification(appell_pde(p23), 1, "bogus")


def test_instance_suites_follow_the_equation(p23):
    # the triangle's suites run exactly when the equation is the triangle's
    names = [r.name for r in run_verification(appell_pde(p23), 1)]
    assert len(names) == 16 and "golden-agreement" in names
    scaled = HypergeometricPDE(*(3 * c for c in appell_pde(p23)))
    names = [r.name for r in run_verification(scaled, 1)]
    assert len(names) == 9 and "classification" not in names


def test_non_admissible_stops_early():
    pde = HypergeometricPDE.from_coeffs(a=1, e=-2, c1=1, c2=1)
    results = run_verification(pde, 3)
    assert not results[0].passed
    assert len(results) <= 2


def test_generic_pde_without_params_skips_instance_suites():
    pde = HypergeometricPDE.from_coeffs(b1=1, c1=1, b2=-1, c2=1, e=-2, f1=1, f2=1)
    results = run_verification(pde, 3)
    assert all(r.passed for r in results)
    assert "golden-agreement" not in [r.name for r in results]


def test_degenerate_discriminant_check_exit(tmp_path, capsys):
    from opde.cli import main
    data = {"a": "0", "b1": "0", "c1": "0", "b2": "0", "c2": "0", "b3": "0",
            "c3": "0", "d3": "0", "e": "1", "f1": "0", "f2": "0"}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--pde", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["potentially_self_adjoint"] is None

def test_golden_agreement_reuses_solved_relations(p11, monkeypatch):
    # the identity suites solve each relation once on the built family; the
    # golden tables are compared against those solutions, not against a
    # second solve (the closed-form routes run on the equation's own family)
    import opde.relations as relations
    import opde.verify as verify
    from opde.monic import MonicLayers
    calls = {}
    for module, name in ((relations, "general_ttrr"), (relations, "structure_matrices"),
                         (relations, "derivative_representation"),
                         (verify, "monic_appell_vector")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            if not isinstance(args[0], MonicLayers):
                calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    results = run_verification(appell_pde(p11), 3)
    assert all(r.passed for r in results), [r.line() for r in results]
    assert calls == {"general_ttrr": 4, "structure_matrices": 3,
                     "derivative_representation": 4, "monic_appell_vector": 4}
    checks = {r.name: r.checks for r in results}
    assert checks["golden-agreement"] == 2 * 4 + 2 * 3 + 6 * 3 + 6 * 2
    assert checks["biorthogonality"] == 100


@pytest.mark.parametrize("big_n, pairs", [(0, 1), (4, 225)])
def test_biorthogonality_respects_degree_bound(big_n, pairs, p11):
    # F and Appell polynomials of degree <= min(N, 4), every pair checked once
    results = run_verification(appell_pde(p11), big_n)
    assert {r.name: r.checks for r in results}["biorthogonality"] == pairs


def test_suite_seconds_are_recorded_within_the_run(p23):
    # wall time per suite, measured over disjoint stretches of one run
    start = perf_counter()
    results = run_verification(appell_pde(p23), 3)
    wall = perf_counter() - start
    assert all(r.seconds >= 0 for r in results)
    assert sum(r.seconds for r in results) <= wall


def test_relation_table_build_is_charged_to_no_suite(p23, monkeypatch):
    # the gate suites finish before the relation table is built, and the
    # first identity suite opens after it
    import opde.verify as verify

    def slow(*args, _build=verify.Relations):
        sleep(0.2)
        return _build(*args)

    monkeypatch.setattr(verify, "Relations", slow)
    start = perf_counter()
    results = run_verification(appell_pde(p23), 1)
    assert perf_counter() - start >= 0.2
    assert len(results) == 16
    assert sum(r.seconds for r in results) < 0.2, [(r.name, r.seconds) for r in results]


def test_biorthogonality_catches_a_bumped_F_polynomial(p23, monkeypatch):
    # F_(1,0) moved by 1/7 is no longer orthogonal to the constant A_(0,0)
    import opde.verify as verify
    from opde.families import nonmonic_F_vector
    from opde.vectors import PolyVector

    def bumped(p, n):
        vec = nonmonic_F_vector(p, n)
        return PolyVector([vec[0] + Fraction(1, 7), *vec[1:]]) if n == 1 else vec

    monkeypatch.setattr(verify, "nonmonic_F_vector", bumped)
    lines = {r.name: r.line() for r in run_verification(appell_pde(p23), 2)}
    assert lines["biorthogonality"].startswith(
        "FAIL biorthogonality (1/36 checks): first failure off-diagonal (1,0)x(0,0)=1/7")


def _bump(m):
    rows = m.tolist()
    rows[0][0] += 1
    return type(m)(rows)


@pytest.mark.parametrize("equation, family, also_failing", [
    ("disk", "monic", set()),
    ("triangle", "koornwinder", set()),
    ("triangle", "monic", {"golden-agreement"}),
], ids=["disk", "koornwinder", "monic-triangle"])
def test_bumped_structure_and_derivative_matrices_are_caught(equation, family, also_failing,
                                                             p23, monkeypatch):
    # one entry of S at n = 2 on axis 1 and one of Y at n = 3 on axis 2, in
    # every solve of the general and closed-form routes alike, so only the
    # identities (and, for the monic triangle, the golden tables) can see them
    import opde.relations as relations
    real_structure = relations.structure_matrices
    real_derivative = relations.derivative_representation

    def structure(fam, phi1, phi2, n):
        (w1, s1, t1), axis2 = real_structure(fam, phi1, phi2, n)
        return ((w1, _bump(s1), t1) if n == 2 else (w1, s1, t1)), axis2

    def derivative(fam, n, axis):
        v, y, z = real_derivative(fam, n, axis)
        return (v, _bump(y), z) if (n, axis) == (3, 2) else (v, y, z)

    monkeypatch.setattr(relations, "structure_matrices", structure)
    monkeypatch.setattr(relations, "derivative_representation", derivative)
    pde = (HypergeometricPDE.from_coeffs(a=-1, c1=1, c2=1, e=-4) if equation == "disk"
           else appell_pde(p23))
    failing = {r.name: r for r in run_verification(pde, 4, family=family) if not r.passed}
    assert set(failing) == {"structure-identity", "derivative-representation", *also_failing}
    assert failing["structure-identity"].failures[0].startswith("n=2 axis=1 entry=")
    assert failing["derivative-representation"].failures[0].startswith("n=3 axis=2 entry=")
    if also_failing:
        assert failing["golden-agreement"].failures == ["S1 n=2", "Y2 n=3"]
