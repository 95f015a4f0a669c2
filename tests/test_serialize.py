import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opde import cli
from opde.families import AppellParams, appell_pde, appell_weight
from opde.matrix import RationalMatrix, _raw
from opde.poly import BivariatePoly, X, Y
from opde.serialize import (format_rational,
                            parse_rational, pde_from_json, pde_to_json,
                            poly_from_json, poly_to_json, to_json_text,
                            vector_to_json, weight_from_json,
                            weight_to_json)
from opde.vectors import PolyVector

coeffs = st.fractions(min_value=-99, max_value=99, max_denominator=12)
polys = st.builds(
    BivariatePoly,
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), coeffs, max_size=8),
)


def test_rational_strings():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(7) == Fraction(7)


def test_rational_rejects_decimals():
    # "3\n" slips past a "$" anchor and "\u0663" (Arabic-Indic three) past
    # "\d"; Fraction() would read both as 3
    for bad in ("0.5", "1e3", "1/0", "1/-3", "", "x", None, 1.5, True, False,
                "3\n", "\u0663", "1/\u0663"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_poly_wire_format_is_leading_first():
    p = X - Fraction(1, 3)
    assert poly_to_json(p) == [[1, 0, "1"], [0, 0, "-1/3"]]
    q = Y - Fraction(1, 3)
    assert poly_to_json(q) == [[0, 1, "1"], [0, 0, "-1/3"]]


def test_vector_wire_format_matches_contract():
    v = PolyVector([X - Fraction(1, 3), Y - Fraction(1, 3)])
    assert vector_to_json(v) == [
        [[1, 0, "1"], [0, 0, "-1/3"]],
        [[0, 1, "1"], [0, 0, "-1/3"]],
    ]


def test_poly_same_degree_ordering():
    p = X**2 + 2 * X * Y + 3 * Y**2
    assert poly_to_json(p) == [[2, 0, "1"], [1, 1, "2"], [0, 2, "3"]]


def test_poly_rejects_duplicates_and_bad_terms():
    with pytest.raises(ValueError):
        poly_from_json([[0, 0, "1"], [0, 0, "2"]])
    with pytest.raises(ValueError):
        poly_from_json([[0, -1, "1"]])
    with pytest.raises(ValueError):
        poly_from_json([[0, 0]])
    with pytest.raises(ValueError):
        poly_from_json({"0": "1"})
    for term in ([True, 1, "-1"], [0, False, "1"]):
        with pytest.raises(ValueError, match="bad exponents"):
            poly_from_json([term])


@given(polys)
def test_poly_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


def test_pde_round_trip():
    pde = appell_pde(AppellParams(Fraction(5, 2), Fraction(7, 3)))
    assert pde_from_json(pde_to_json(pde)) == pde


def test_pde_requires_all_keys():
    data = pde_to_json(appell_pde(AppellParams(1, 1)))
    del data["b3"]
    with pytest.raises(ValueError, match="missing"):
        pde_from_json(data)
    data["b3"] = "0"
    data["zz"] = "1"
    with pytest.raises(ValueError, match="unknown"):
        pde_from_json(data)
    del data["zz"]
    data["e"] = True
    with pytest.raises(ValueError, match="not an exact rational"):
        pde_from_json(data)


def test_weight_round_trip():
    w = appell_weight(AppellParams(Fraction(5, 2), Fraction(7, 3)))
    assert weight_from_json(weight_to_json(w)) == w
    from opde.weights import WeightSpec
    w2 = WeightSpec(Fraction(1, 2), 0, ((BivariatePoly.const(1) - X - Y, Fraction(3)),))
    assert weight_from_json(weight_to_json(w2)) == w2


@pytest.mark.parametrize("data", [
    [], {"u": "0"}, {"u": "0", "v": "0", "factors": 5},
    {"u": "0", "v": "0", "factors": None}, {"u": "0", "v": "0", "factors": [5]},
    {"u": "0", "v": "0", "junk": 1}, {"u": "0", "v": "0", "factors": [], "junk": 1},
], ids=["list", "no-v", "int-factors", "null-factors", "bad-factor", "unknown-key",
        "unknown-key-with-factors"])
def test_weight_rejects_malformed_objects(data):
    with pytest.raises(ValueError):
        weight_from_json(data)


def _tree(value):
    """The JSON tree of a payload, built from the Fraction view of every
    polynomial and matrix: the oracle of ``to_json_text``."""
    if isinstance(value, BivariatePoly):
        triples = [[i, j, format_rational(c)] for (i, j), c in value.terms()]
        return sorted(triples, key=lambda t: (-(t[0] + t[1]), t[1]))
    if isinstance(value, RationalMatrix):
        return [[format_rational(c) for c in row] for row in value.rows]
    if isinstance(value, PolyVector):
        return [_tree(p) for p in value]
    if isinstance(value, dict):
        return {k: _tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_tree(v) for v in value]
    return value


_WRITER_CASES = {
    "scalars": [True, False, None, 0, -7, 10**40, "", "plain"],
    "non-ascii": {"name": "Koornwinder – ω² \"quoted\"\n", "ü": ["é"]},
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
    "empty-top-list": [],
    "empty-top-dict": {},
    "zero-poly": BivariatePoly.zero(),
    "polys": [X - Fraction(1, 3), (X + Fraction(1, 2) * Y - 3)**4, BivariatePoly.const(-5)],
    "vector": PolyVector([Y - Fraction(1, 3), X * Y, BivariatePoly.zero()]),
    "matrix": RationalMatrix([[Fraction(1, 2), 0, -3], [4, Fraction(-5, 6), 0]]),
    "matrix-1x1": RationalMatrix([[0]]),
    "zero-matrix": RationalMatrix.zeros(3, 4),
    # banded, over a denominator: zeros beside entries that need a gcd
    "banded-matrix": RationalMatrix([[Fraction(2, 3) * (i + 1) if abs(i - k) <= 1 else 0
                                      for k in range(6)] for i in range(5)]),
    "integer-matrix": RationalMatrix([[0, -1, 0], [10**30, 0, 0]]),
    # no public constructor makes a matrix without columns
    "matrix-no-columns": _raw(((), ()), 1),
    "mixed": {"N": 2, "rows": [{"n": 1, "m": 0, "poly": X}],
              "matrices": {"0": {"A1": RationalMatrix([[1, 0]])}}},
}


@pytest.mark.parametrize("name", list(_WRITER_CASES))
def test_writer_matches_json_dumps(name):
    value = _WRITER_CASES[name]
    assert to_json_text(value) == json.dumps(_tree(value), indent=2)


def test_writer_rejects_what_json_cannot_carry_exactly():
    for bad in (0.5, Fraction(1, 2), {1: "a"}, object()):
        with pytest.raises(TypeError):
            to_json_text(bad)


@pytest.mark.parametrize("point", [["2", "3"], ["3/2", "5/7"]], ids=["2,3", "3/2,5/7"])
@pytest.mark.parametrize("argv", [
    ["check"], ["classify"], ["build", "-N", "3"],
    ["build", "-N", "2", "--family", "koornwinder"], ["rodrigues", "-N", "5"],
], ids=["check", "classify", "build", "build-koornwinder", "rodrigues"])
def test_writer_matches_json_dumps_on_command_payloads(argv, point, monkeypatch, capsys):
    payloads = []

    def spy(payload):
        payloads.append(payload)
        return to_json_text(payload)

    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.setattr(cli, "to_json_text", spy)
    assert cli.main([*argv, "--alpha", point[0], "--beta", point[1]]) == 0
    [payload] = payloads
    assert capsys.readouterr().out == json.dumps(_tree(payload), indent=2) + "\n"
