"""Output checks for the benchmark, computed independently of the opde package.

Nothing here imports opde: outputs are parsed from their wire format with the
standard library's Fraction, and every property is recomputed from the eleven
equation coefficients.  A polynomial is a dict {(i, j): Fraction} without zero
coefficients.

Each check_* function takes the text a command printed and raises CheckFailed
with a short reason when the output is wrong.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, int], Fraction]

EQUATION_KEYS = ("a", "b1", "c1", "b2", "c2", "b3", "c3", "d3", "e", "f1", "f2")
IDENTITY_SUITES = ("admissibility", "self-adjointness", "eigen-residual",
                   "subleading-closed-form", "construction-routes", "ttrr-identity",
                   "derivative-family-ttrr", "structure-identity",
                   "derivative-representation")
INSTANCE_SUITES = ("classification", "pearson", "orthogonality-blocks", "series-route",
                   "golden-agreement", "connections", "biorthogonality")
# Suites that only apply to the monic family; a non-monic verify run skips them.
MONIC_ONLY_SUITES = ("eigen-residual", "subleading-closed-form", "construction-routes",
                     "series-route", "golden-agreement", "connections", "biorthogonality")

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_PASS_LINE = re.compile(r"^PASS (\S+) \((\d+) checks\)( \[.*\])?$")

# The matrix relations are tested at two random integer points with coordinates
# in [-10^6, 10^6].  By the Schwartz-Zippel lemma a false identity of degree d
# survives one point with probability at most d / (2 * 10^6 + 1).
_RNG = random.Random(20110113)
_POINTS = [(_RNG.randint(-10**6, 10**6), _RNG.randint(-10**6, 10**6)) for _ in range(2)]


class CheckFailed(Exception):
    """An output violates a property the benchmark recomputes."""


# -- parsing -------------------------------------------------------------------

def parse_rational(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL.match(s):
        raise CheckFailed(f"not an exact rational string: {s!r}")
    return Fraction(s)


def parse_poly(data) -> Poly:
    if not isinstance(data, list):
        raise CheckFailed("polynomial is not a list of terms")
    out: Poly = {}
    for term in data:
        if not (isinstance(term, list) and len(term) == 3
                and isinstance(term[0], int) and isinstance(term[1], int)
                and term[0] >= 0 and term[1] >= 0):
            raise CheckFailed(f"bad polynomial term {term!r}")
        c = parse_rational(term[2])
        if (term[0], term[1]) in out or c == 0:
            raise CheckFailed(f"repeated or zero term {term!r}")
        out[(term[0], term[1])] = c
    return out


def parse_matrix(data, nrows: int, ncols: int) -> List[List[Fraction]]:
    if not (isinstance(data, list) and len(data) == nrows
            and all(isinstance(r, list) and len(r) == ncols for r in data)):
        raise CheckFailed(f"matrix is not {nrows} x {ncols}")
    return [[parse_rational(v) for v in row] for row in data]


def parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as ex:
        raise CheckFailed(f"output is not JSON: {ex}") from None
    if not isinstance(data, dict):
        raise CheckFailed("output is not a JSON object")
    return data


def equation(data: Dict[str, str]) -> Dict[str, Fraction]:
    """The eleven coefficients of an equation from its {"a": "p/q", ...} object."""
    return {k: Fraction(data[k]) for k in EQUATION_KEYS}


def triangle_equation(alpha: Fraction, beta: Fraction) -> Dict[str, Fraction]:
    """x(1-x) u_xx - 2xy u_xy + y(1-y) u_yy + (alpha - (alpha+beta+1) x) u_x
    + (beta - (alpha+beta+1) y) u_y = -lambda u."""
    coeffs = dict.fromkeys(EQUATION_KEYS, Fraction(0))
    coeffs.update(a=Fraction(-1), b1=Fraction(1), b2=Fraction(1),
                  e=-(alpha + beta + 1), f1=alpha, f2=beta)
    return coeffs


# -- polynomial helpers ------------------------------------------------------------

def degree(p: Poly) -> int:
    return max((i + j for i, j in p), default=-1)


def evaluate(p: Poly, x: int, y: int) -> Fraction:
    top = max((max(i, j) for i, j in p), default=0)
    xs, ys = [1], [1]
    for _ in range(top):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    return sum((c * xs[i] * ys[j] for (i, j), c in p.items()), Fraction(0))


def diff(p: Poly, axis: int) -> Poly:
    if axis == 1:
        return {(i - 1, j): c * i for (i, j), c in p.items() if i}
    return {(i, j - 1): c * j for (i, j), c in p.items() if j}


def eigenvalue(eq: Dict[str, Fraction], n: int) -> Fraction:
    return -n * ((n - 1) * eq["a"] + eq["e"])


def residual(eq: Dict[str, Fraction], p: Poly, lam: Fraction) -> Poly:
    """D p + lam p for the equation
    (a x^2 + b1 x + c1) p_xx + 2 (a xy + b3 x + c3 y + d3) p_xy
    + (a y^2 + b2 y + c2) p_yy + (e x + f1) p_x + (e y + f2) p_y,
    accumulated term by term."""
    a, b1, c1, b2, c2 = eq["a"], eq["b1"], eq["c1"], eq["b2"], eq["c2"]
    b3, c3, d3, e, f1, f2 = eq["b3"], eq["c3"], eq["d3"], eq["e"], eq["f1"], eq["f2"]
    out: Poly = {}

    def put(i: int, j: int, v: Fraction) -> None:
        if v:
            out[(i, j)] = out.get((i, j), 0) + v

    for (i, j), c in p.items():
        n = i + j
        put(i, j, c * (a * n * (n - 1) + e * n + lam))
        xx, xy, yy = c * i * (i - 1), 2 * c * i * j, c * j * (j - 1)
        put(i - 1, j, xx * b1 + c * i * f1)
        put(i - 2, j, xx * c1)
        put(i, j - 1, xy * b3 + yy * b2 + c * j * f2)
        put(i - 1, j, xy * c3)
        put(i - 1, j - 1, xy * d3)
        put(i, j - 2, yy * c2)
    return {k: v for k, v in out.items() if v}


def require_eigen(eq: Dict[str, Fraction], p: Poly, n: int, where: str) -> None:
    if residual(eq, p, eigenvalue(eq, n)):
        raise CheckFailed(f"{where} does not solve the equation at lambda_{n}")


class TriangleMoments:
    """L[x^i y^j] = (alpha)_i (beta)_j / (alpha+beta+1)_{i+j}: the moments of
    x^(alpha-1) y^(beta-1) on the triangle, normalised so that L[1] = 1."""

    def __init__(self, alpha: Fraction, beta: Fraction):
        self.alpha, self.beta = alpha, beta
        self.pa, self.pb, self.pab = [Fraction(1)], [Fraction(1)], [Fraction(1)]
        self.table: Dict[Tuple[int, int], Fraction] = {}

    @staticmethod
    def _grow(table: List[Fraction], base: Fraction, k: int) -> None:
        while len(table) <= k:
            table.append(table[-1] * (base + len(table) - 1))

    def __call__(self, i: int, j: int) -> Fraction:
        if (i, j) not in self.table:
            self._grow(self.pa, self.alpha, i)
            self._grow(self.pb, self.beta, j)
            self._grow(self.pab, self.alpha + self.beta + 1, i + j)
            self.table[(i, j)] = self.pa[i] * self.pb[j] / self.pab[i + j]
        return self.table[(i, j)]


def require_orthogonal(moments: TriangleMoments, p: Poly, n: int, where: str) -> None:
    """p must be orthogonal to every monomial of total degree below n."""
    for d in range(n):
        for j in range(d + 1):
            i = d - j
            if sum(c * moments(i + u, j + v) for (u, v), c in p.items()):
                raise CheckFailed(f"{where} is not orthogonal to x^{i} y^{j}")


# -- command outputs -------------------------------------------------------------

def check_check(text: str) -> None:
    report = parse_json(text)
    if report.get("admissible") is not True:
        raise CheckFailed("equation reported not admissible")
    if report.get("potentially_self_adjoint") is not True:
        raise CheckFailed("equation reported not potentially self-adjoint")


def check_classify(text: str, cases: Sequence[str]) -> None:
    got = [c.get("case") for c in parse_json(text).get("cases", [])]
    if got != list(cases):
        raise CheckFailed(f"classify gave cases {got}, expected {list(cases)}")


def check_verify(text: str, suites: Sequence[str]) -> None:
    names = []
    for line in text.splitlines():
        m = _PASS_LINE.match(line)
        if not m:
            raise CheckFailed(f"verify line is not a PASS: {line!r}")
        names.append(m.group(1))
    if sorted(names) != sorted(suites):
        raise CheckFailed(f"verify ran suites {names}, expected {sorted(suites)}")


def verify_suites(with_params: bool, monic: bool) -> List[str]:
    """The suite names a verify run must report."""
    names = list(IDENTITY_SUITES) + (list(INSTANCE_SUITES) if with_params else [])
    return names if monic else [s for s in names if s not in MONIC_ONLY_SUITES]


def _values(vectors: Sequence[Sequence[Poly]], pt) -> List[List[Fraction]]:
    return [[evaluate(p, *pt) for p in vec] for vec in vectors]


def _apply(m: List[List[Fraction]], v: Sequence[Fraction]) -> List[Fraction]:
    return [sum((c * w for c, w in zip(row, v) if c), Fraction(0)) for row in m]


def _combine(*terms) -> List[Fraction]:
    out = None
    for m, v in terms:
        part = _apply(m, v)
        out = part if out is None else [a + b for a, b in zip(out, part)]
    return out


def check_build(text: str, eq: Dict[str, Fraction], big_n: int,
                phi: Tuple[Poly, Poly], moments: Optional[TriangleMoments]) -> None:
    """`build --format json` output of the monic family:

    * every P_n is monic: entry k is x^(n-k) y^k plus terms of lower degree;
    * every entry solves the equation at lambda_n;
    * for n < N, along both axes j the emitted matrices satisfy
        x_j P_n = A_j P_{n+1} + B_j P_n + C_j P_{n-1},
        phi_j d_j P_n = W_j P_{n+1} + S_j P_n + T_j P_{n-1},
        P_n = V_j d_j P_{n+1} + Y_j d_j P_n + Z_j d_j P_{n-1};
    * with triangle moments, P_N is orthogonal to every lower monomial.
    """
    payload = parse_json(text)
    if payload.get("family") != "monic" or payload.get("N") != big_n:
        raise CheckFailed("build output has the wrong family or degree bound")
    raw = payload.get("vectors")
    if not (isinstance(raw, list) and len(raw) == big_n + 1):
        raise CheckFailed(f"build output does not hold degrees 0..{big_n}")
    vectors: List[List[Poly]] = []
    for n, vec in enumerate(raw):
        if not (isinstance(vec, list) and len(vec) == n + 1):
            raise CheckFailed(f"P_{n} does not have {n + 1} entries")
        vectors.append([parse_poly(p) for p in vec])
    for n, vec in enumerate(vectors):
        for k, p in enumerate(vec):
            top = {e: c for e, c in p.items() if e[0] + e[1] >= n}
            if top != {(n - k, k): 1}:
                raise CheckFailed(f"P_{n}[{k}] is not monic in x^{n - k} y^{k}")
            require_eigen(eq, p, n, f"P_{n}[{k}]")

    matrices = payload.get("matrices")
    if not isinstance(matrices, dict) or sorted(matrices) != sorted(map(str, range(big_n + 1))):
        raise CheckFailed(f"build output does not hold matrices for degrees 0..{big_n}")
    derivs = {j: [[diff(p, j) for p in vec] for vec in vectors] for j in (1, 2)}
    at_points = [(pt, _values(vectors, pt), {j: _values(derivs[j], pt) for j in (1, 2)},
                  {j: evaluate(phi[j - 1], *pt) for j in (1, 2)}) for pt in _POINTS]
    for n in range(big_n + 1):
        entry = matrices[str(n)]
        names = {"A1", "B1", "A2", "B2"}
        names |= {"C1", "C2", "W1", "S1", "T1", "W2", "S2", "T2"} if n >= 1 else set()
        names |= {"V1", "Y1", "Z1", "V2", "Y2", "Z2"} if n >= 2 else set()
        if set(entry) != names:
            raise CheckFailed(f"degree {n} holds matrices {sorted(entry)}")
        if n == big_n:
            continue  # the relations at N need P_{N+1}, which build does not emit
        for j in (1, 2):
            m = {k[0]: parse_matrix(entry[k], n + 1, w) for k, w in (
                (f"A{j}", n + 2), (f"B{j}", n + 1), (f"C{j}", n),
                (f"W{j}", n + 2), (f"S{j}", n + 1), (f"T{j}", n),
                (f"V{j}", n + 2), (f"Y{j}", n + 1), (f"Z{j}", n)) if k in entry}
            here = f"degree {n} axis {j}"
            for pt, vals, dvals, phis in at_points:
                lower = [(m["C"], vals[n - 1])] if n >= 1 else []
                rhs = _combine((m["A"], vals[n + 1]), (m["B"], vals[n]), *lower)
                if rhs != [pt[j - 1] * v for v in vals[n]]:
                    raise CheckFailed(f"recurrence fails at {here}")
                if n >= 1:
                    rhs = _combine((m["W"], vals[n + 1]), (m["S"], vals[n]),
                                   (m["T"], vals[n - 1]))
                    if rhs != [phis[j] * v for v in dvals[j][n]]:
                        raise CheckFailed(f"structure relation fails at {here}")
                if n >= 2:
                    rhs = _combine((m["V"], dvals[j][n + 1]), (m["Y"], dvals[j][n]),
                                   (m["Z"], dvals[j][n - 1]))
                    if rhs != vals[n]:
                        raise CheckFailed(f"derivative representation fails at {here}")
    if moments is not None:
        for k, p in enumerate(vectors[big_n]):
            require_orthogonal(moments, p, big_n, f"P_{big_n}[{k}]")


def check_rodrigues(text: str, eq: Dict[str, Fraction], big_n: int,
                    moments: Optional[TriangleMoments]) -> None:
    """`rodrigues --format json` output: the (n, m) output for every
    n + m <= N has total degree n + m and solves the equation at
    lambda_{n+m}; with triangle moments it is orthogonal to lower degrees."""
    payload = parse_json(text)
    outputs = payload.get("rodrigues")
    want = [(t - m, m) for t in range(big_n + 1) for m in range(t + 1)]
    if payload.get("N") != big_n or not isinstance(outputs, list) \
            or [(o.get("n"), o.get("m")) for o in outputs] != want:
        raise CheckFailed(f"rodrigues output does not list every (n, m) with n + m <= {big_n}")
    for o in outputs:
        total, p = o["n"] + o["m"], parse_poly(o["poly"])
        where = f"Rodrigues output ({o['n']}, {o['m']})"
        if degree(p) != total:
            raise CheckFailed(f"{where} has degree {degree(p)}")
        require_eigen(eq, p, total, where)
        if moments is not None:
            require_orthogonal(moments, p, total, where)
