"""JSON wire formats.

Rationals travel as strings "p/q" ("p" when the denominator is 1); decimals
are rejected, never parsed.  A polynomial is a list of [i, j, "p/q"] triples,
leading terms first (total degree descending, then the y-power ascending,
matching the monomial-vector ordering within each degree).  A matrix is a
row-major nested list of rational strings.  Parsing is strict: anything the
emitter cannot produce is a ValueError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Callable, Dict, List, Tuple

from .matrix import RationalMatrix
from .pde import HypergeometricPDE
from .poly import BivariatePoly
from .vectors import PolyVector
from .weights import WeightSpec

_RAT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

PDE_FIELDS = HypergeometricPDE._fields


def format_rational(q: Fraction) -> str:
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(a: int, den: int) -> str:
    """The wire string of a/den for den > 0, in lowest terms: "p/q", or "p"
    when q is 1 (the same text as str(Fraction(a, den)))."""
    g = gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


def _is_int(v: Any) -> bool:
    """A JSON integer: bool is an int subclass, but true/false are no numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_rational(s: Any) -> Fraction:
    if _is_int(s):
        return Fraction(s)
    if not isinstance(s, str) or not _RAT.fullmatch(s):
        raise ValueError(f"not an exact rational string: {s!r}")
    return Fraction(s)


def _wire_terms(p: BivariatePoly) -> Tuple[List[Tuple[Tuple[int, int], int]], int]:
    """The int numerators of p by exponent pair in wire order (total degree
    descending, then the y-power ascending), and their common denominator."""
    terms, den = p.as_integers()
    return sorted(terms.items(), key=lambda t: (-t[0][0] - t[0][1], t[0][1])), den


def poly_to_json(p: BivariatePoly) -> List[list]:
    terms, den = _wire_terms(p)
    return [[i, j, _format_ratio(a, den)] for (i, j), a in terms]


def poly_from_json(data: Any) -> BivariatePoly:
    if not isinstance(data, list):
        raise ValueError("polynomial must be a list of [i, j, coeff] triples")
    terms = {}
    for item in data:
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"bad polynomial term: {item!r}")
        i, j, c = item
        if not (_is_int(i) and _is_int(j) and i >= 0 and j >= 0):
            raise ValueError(f"bad exponents in term: {item!r}")
        if (i, j) in terms:
            raise ValueError(f"duplicate exponent pair {(i, j)}")
        terms[(i, j)] = parse_rational(c)
    return BivariatePoly(terms)


def matrix_to_json(m: RationalMatrix) -> List[List[str]]:
    num, den = m.as_integers()
    return [[_format_ratio(a, den) for a in row] for row in num]


def vector_to_json(v: PolyVector) -> List[list]:
    return [poly_to_json(p) for p in v]


def pde_to_json(pde: HypergeometricPDE) -> Dict[str, str]:
    return {k: format_rational(getattr(pde, k)) for k in PDE_FIELDS}


def pde_from_json(data: Any) -> HypergeometricPDE:
    if not isinstance(data, dict):
        raise ValueError("equation must be a flat JSON object of coefficients")
    unknown = set(data) - set(PDE_FIELDS)
    if unknown:
        raise ValueError(f"unknown coefficient keys: {sorted(unknown)}")
    missing = set(PDE_FIELDS) - set(data)
    if missing:
        raise ValueError(f"missing coefficient keys: {sorted(missing)}")
    return HypergeometricPDE(**{k: parse_rational(data[k]) for k in PDE_FIELDS})


def weight_to_json(w: WeightSpec) -> Dict[str, Any]:
    return {
        "u": format_rational(w.u),
        "v": format_rational(w.v),
        "factors": [[poly_to_json(q), format_rational(e)] for q, e in w.factors],
    }


def weight_from_json(data: Any) -> WeightSpec:
    if not isinstance(data, dict) or not {"u", "v"} <= set(data):
        raise ValueError("weight must be an object with keys u, v, factors")
    unknown = set(data) - {"u", "v", "factors"}
    if unknown:
        raise ValueError(f"unknown weight keys: {sorted(unknown)}")
    items = data.get("factors", [])
    if not isinstance(items, list):
        raise ValueError("weight factors must be a list of [polynomial, exponent] pairs")
    factors = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"bad weight factor: {item!r}")
        factors.append((poly_from_json(item[0]), parse_rational(item[1])))
    return WeightSpec(parse_rational(data["u"]), parse_rational(data["v"]),
                      tuple(factors))


def to_json_text(value: Any) -> str:
    """``value`` as JSON text indented by two spaces, written straight from
    the integer storage of every polynomial and matrix in it: byte for byte
    what ``json.dumps(tree, indent=2)`` writes for the tree that puts each
    polynomial, vector and matrix in its wire form.  Dicts need str keys;
    floats, like every other type, are a TypeError."""
    parts: List[str] = []
    _write(value, "\n", parts.append)
    return "".join(parts)


def _write(value: Any, nl: str, put: Callable[[str], None]) -> None:
    """Append ``value`` at the indentation that ``nl`` (a newline and the
    indentation of the enclosing line) gives."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, BivariatePoly):
        terms, den = _wire_terms(value)
        i1 = nl + "  "
        i2 = i1 + "  "
        put(_array([f'{i1}[{i2}{i},{i2}{j},{i2}"{_format_ratio(a, den)}"{i1}]'
                    for (i, j), a in terms], nl))
    elif isinstance(value, RationalMatrix):
        num, den = value.as_integers()
        i1 = nl + "  "
        i2 = i1 + "  "
        zero = i2 + '"0"'  # most entries: a zero needs no gcd
        put(_array([i1 + _array([f'{i2}"{_format_ratio(a, den)}"' if a else zero
                                 for a in row], i1)
                    for row in num], nl))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(value, (list, PolyVector)):
        if not len(value):
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array(items: List[str], nl: str) -> str:
    """A JSON array of items that each start with their own newline and
    indentation; ``nl`` is that of the line holding the array."""
    return "[" + ",".join(items) + nl + "]" if items else "[]"
