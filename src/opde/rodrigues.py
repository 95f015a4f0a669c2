"""Symbolic evaluation of Rodrigues-type formulas.

A weighted expression is

    F_0^(e_0) * F_1^(e_1) * ... * F_k^(e_k) * poly

over a factor basis fixed per computation (x, y, the supplied weight factors,
plus whatever extra factors the weight-shift polynomials contribute).  The
representation is closed under partial differentiation.  A factor is active
for an axis when its exponent is nonzero and it depends on that axis; one
derivative decrements the exponent of every active factor and folds the
product rule, cleared of those factors' denominators, into the polynomial
part.  Inactive factors are constants for that derivative: their exponents
stay and they never enter the polynomial part.

The degree-(n+m) eigensolution attached to a weight rho and factor pair
(phi10, phi01) is

    (1 / rho) * d^(n+m) / dx^n dy^m [ rho * phi10^n * phi01^m ]

with the normalizing constant fixed to 1.  Division by rho is exponent
subtraction; leftover integer exponents are folded back into the polynomial
part by expansion or exact division.  Weights whose residual exponents are
not integers are outside the supported class and are rejected, never
approximated.

Derivative orders have no entry point of their own: rho * phi10^r * phi01^s
is itself a weight (``weights.shifted_weight``), and

    rodrigues_eval(shifted_weight(w, case, r, s), case, n - r, m - s)

is an exact polynomial degree-(n+m-r-s) eigensolution of the shifted equation
``pde.shifted(r, s)``.  It agrees with the literal mixed derivative of the
(n, m) output (up to a nonzero rational) on univariate chains (n = 0 or
m = 0), at full depth (r, s) = (n, m) and at (r, s) = (0, 0); for
intermediate mixed orders the two are distinct members of the same
multi-dimensional eigenspace (see ERRATA.md).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import DegreeMismatch, NotDivisible, NotReducible
from .poly import ONE, X, Y, BivariatePoly

if TYPE_CHECKING:  # weights imports this module; the types annotate only
    from .weights import PhiCase, WeightSpec


class _WeightedExprFields(NamedTuple):
    factors: Tuple[BivariatePoly, ...]
    exponents: Tuple[Fraction, ...]
    poly: BivariatePoly


class WeightedExpr(_WeightedExprFields):
    __slots__ = ()

    # NamedTuple._replace skips this check: build new values through cls(...)
    def __new__(cls, factors: Tuple[BivariatePoly, ...],
                exponents: Tuple[Fraction, ...], poly: BivariatePoly) -> "WeightedExpr":
        if len(factors) != len(exponents):
            raise ValueError("one exponent per factor")
        return super().__new__(cls, factors, exponents, poly)


def weighted_diff(expr: WeightedExpr, axis: int) -> WeightedExpr:
    """Exact partial derivative.  Only active factors (nonzero exponent,
    nonzero dF_i along the axis) lose one from their exponent; the polynomial
    part becomes

        prod_active F_j * dpoly + (sum_{i active} e_i G_i) * poly,
        G_i = dF_i prod_{active j != i} F_j,

    summed as int numerators over one denominator and normalized once.
    """
    exponents = list(expr.exponents)
    active, prod, prod_den, rules = _step_rule(
        expr.factors, tuple(e != 0 for e in exponents), axis)
    den = prod_den
    for i, (_, g_den) in zip(active, rules):
        den = lcm(den, exponents[i].denominator * g_den)
    # stencil[k] = [P, R]: the monomial c x^i y^j of the polynomial part adds
    # c * (deg * P + R) at k + (i, j), deg its power of the axis variable;
    # P terms are stored one power of that variable down
    dx, dy = (1, 0) if axis == 1 else (0, 1)
    scale = den // prod_den
    stencil = {(a - dx, b - dy): [c * scale, 0] for (a, b), c in prod}
    for i, (g, g_den) in zip(active, rules):
        e = exponents[i]
        scale = e.numerator * (den // (e.denominator * g_den))
        for k, c in g:
            stencil.setdefault(k, [0, 0])[1] += c * scale
        exponents[i] = e - 1
    full = [(a, b, p, r) for (a, b), (p, r) in stencil.items()]
    rule_only = [(a, b, r) for a, b, _, r in full if r]
    terms, poly_den = expr.poly.as_integers()
    out: Dict[Tuple[int, int], int] = {}
    get = out.get
    for (i, j), c in terms.items():
        deg = i if axis == 1 else j
        if deg:
            for a, b, p, r in full:
                k = (a + i, b + j)
                out[k] = get(k, 0) + c * (deg * p + r)
        else:
            for a, b, r in rule_only:
                k = (a + i, b + j)
                out[k] = get(k, 0) + c * r
    return WeightedExpr(expr.factors, tuple(exponents),
                        BivariatePoly.from_integers(out, poly_den * den))


@lru_cache(maxsize=None)
def _step_rule(factors: Tuple[BivariatePoly, ...], live: Tuple[bool, ...], axis: int):
    """The product rule of one derivative step, for the factors flagged
    ``live`` (nonzero exponent): the indices of the active ones, the
    numerator terms and denominator of their product, and of each G_i."""
    active = tuple(i for i, (f, on) in enumerate(zip(factors, live))
                   if on and not f.diff(axis).is_zero())
    prod = ONE
    rules = []
    for i in active:
        prod = prod * factors[i]
        g = factors[i].diff(axis)
        for j in active:
            if j != i:
                g = g * factors[j]
        rules.append(_integer_terms(g))
    return (active, *_integer_terms(prod), tuple(rules))


def _integer_terms(p: BivariatePoly):
    terms, den = p.as_integers()
    return tuple(terms.items()), den


def _peel(phi: BivariatePoly, basis: List[BivariatePoly]
          ) -> Tuple[List[int], Fraction]:
    """Write phi as const * prod basis[i]^mult[i], extending the basis with
    one opaque residual factor if needed."""
    if phi.is_zero():
        raise ValueError("a phi factor is the zero polynomial")
    counts = [0] * len(basis)
    rem = phi
    for idx, f in enumerate(basis):
        while True:
            try:
                rem = rem.exact_div(f)
                counts[idx] += 1
            except NotDivisible:
                break
    if rem.degree() == 0:
        return counts, rem.coefficient(0, 0)
    basis.append(rem)
    counts.append(1)
    return counts, Fraction(1)


@lru_cache(maxsize=None)
def _assemble(w: WeightSpec, case: PhiCase):
    """Factor basis, the weight's own exponents, the phi multiplicity
    vectors, and the scalar contents of the two phi factors; computed once
    per (weight, factor pair), as tuples so no caller can change them."""
    basis: List[BivariatePoly] = [X, Y] + [q for q, _ in w.factors]
    m10, c10 = _peel(case.phi10, basis)
    m01, c01 = _peel(case.phi01, basis)
    size = len(basis)
    m10 += [0] * (size - len(m10))
    m01 += [0] * (size - len(m01))
    rho_exps = [w.u, w.v] + [wt for _, wt in w.factors] + [Fraction(0)] * (size - 2 - len(w.factors))
    return tuple(basis), tuple(rho_exps), tuple(m10), c10, tuple(m01), c01


def _divide_out(expr: WeightedExpr, rho_exps: Sequence[Fraction], degree: int
                ) -> BivariatePoly:
    """Divide a differentiated expression by the weight: subtract exponents
    and fold the integer residuals back into the polynomial part, which must
    have total degree ``degree``."""
    poly = expr.poly
    for f, have, want in zip(expr.factors, expr.exponents, rho_exps):
        res = have - want
        if res.denominator != 1:
            raise NotReducible(f"residual exponent {res} on factor {f} is not an integer")
        t = int(res)
        if t > 0:
            poly = poly * f**t
        elif t < 0:
            try:
                poly = poly.exact_div(f**(-t))
            except NotDivisible:
                raise NotReducible(
                    f"polynomial part is not divisible by ({f})^{-t}") from None
    if poly.degree() != degree:
        raise DegreeMismatch(f"Rodrigues output has degree {poly.degree()}, expected {degree}")
    return poly


def _bracket(w: WeightSpec, case: PhiCase, n: int, m: int) -> WeightedExpr:
    """rho * phi10^n * phi01^m over the factor basis, with the scalar
    contents of the phi factors as its polynomial part."""
    basis, rho_exps, m10, c10, m01, c01 = _assemble(w, case)
    return WeightedExpr(basis, tuple(e + n * a + m * b
                                     for e, a, b in zip(rho_exps, m10, m01)),
                        BivariatePoly.const(c10**n * c01**m))


def rodrigues_eval(w: WeightSpec, case: PhiCase, n: int, m: int) -> BivariatePoly:
    """The (n, m) Rodrigues output for weight w and factor pair ``case``,
    normalized with constant 1; the result must have total degree n + m."""
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    expr = _bracket(w, case, n, m)
    for _ in range(n):
        expr = weighted_diff(expr, 1)
    for _ in range(m):
        expr = weighted_diff(expr, 2)
    return _divide_out(expr, _assemble(w, case)[1], n + m)


Node = Tuple[int, int]


def derivative_plan(targets: Iterable[Node]) -> List[Tuple[Node, int, Node]]:
    """The derivative steps (parent, axis, child) that reach every target
    (n, m) from the root (0, 0), in evaluation order: each parent is the root
    or the child of an earlier step, and each step moves one unit along x
    (axis 1) or y (axis 2).  Partial derivatives commute, so a node stands for
    every order of its steps, and a node with two children shares its step.

    At node (a, b), once (a, b) itself is recorded, the remaining targets
    decide: step y if all have m > b, else step x if all have n > a, else
    sort them by (m - b) - (n - a) and send the first half to the x child,
    the rest to the y child, except that a target with n = a goes to the y
    side and one with m = b to the x side.  A node that two branches reach
    is stepped to once.  A single target is reached by its y-steps, then its
    x-steps.  For the pairs of one total degree t this takes 0, 2, 5, 8,
    12, ... steps, as few as any tree that splits them in sorted order (a
    dynamic program over those trees agrees for t <= 18), where the full
    lattice takes (t + 1)(t + 2)/2 - 1."""
    targets = list(targets)
    if any(n < 0 or m < 0 for n, m in targets):
        raise ValueError("need n, m >= 0")
    steps: List[Tuple[Node, int, Node]] = []
    derived = {(0, 0)}

    def step(node: Node, axis: int) -> Node:
        child = (node[0] + 1, node[1]) if axis == 1 else (node[0], node[1] + 1)
        if child not in derived:
            derived.add(child)
            steps.append((node, axis, child))
        return child

    def grow(node: Node, remaining: List[Node]) -> None:
        while True:
            a, b = node
            remaining = [t for t in remaining if t != node]
            if not remaining:
                return
            if all(m > b for _, m in remaining):
                node = step(node, 2)
            elif all(n > a for n, _ in remaining):
                node = step(node, 1)
            else:
                break
        remaining.sort(key=lambda t: (t[1] - b) - (t[0] - a))
        first, rest = remaining[:len(remaining) // 2], remaining[len(remaining) // 2:]
        xs = [t for t in first if t[0] > a] + [t for t in rest if t[1] == b]
        ys = [t for t in rest if t[1] > b] + [t for t in first if t[0] == a]
        for axis, side in ((1, xs), (2, ys)):
            if side:
                grow(step(node, axis), side)

    grow((0, 0), targets)
    return steps


def _mirror(w: WeightSpec, case: PhiCase) -> bool:
    """Whether the swap sigma(x, y) = (y, x) fixes rho and carries phi10 to
    phi01, by exact equality on the inputs: u == v, swapping every weight
    factor leaves the multiset of (factor, exponent) pairs unchanged, and
    swap(phi10) == phi01.  Then sigma commutes with the derivatives and the
    division by rho, so it carries the (n, m) output onto the (m, n) one."""
    return (w.u == w.v and case.phi10.swap() == case.phi01
            and Counter(w.factors) == Counter((q.swap(), e) for q, e in w.factors))


def rodrigues_table(w: WeightSpec, case: PhiCase, N: int
                    ) -> Dict[Tuple[int, int], BivariatePoly]:
    """Every output ``rodrigues_eval(w, case, n, m)`` with n + m <= N, keyed
    by (n, m) in order of total degree, then m ascending.

    Outputs whose brackets rho * phi10^n * phi01^m coincide form one class:
    on the disk, phi10 = phi01, every pair of one total degree; a constant
    phi factor joins pairs across total degrees.  The class key is the
    bracket's integer exponent shift n * m10 + m * m01 with its content.
    Each class builds its bracket once and takes all its derivatives from one
    ``derivative_plan`` tree.  Partial derivatives commute, so every output
    is the polynomial the x-first evaluation gives.

    When ``_mirror`` holds (the disk, the triangle at alpha = beta), only
    the pairs with n >= m are derived and divided out, and each (m, n)
    output with m < n is the swap of the (n, m) output, which comes earlier
    in key order.  Disk, N = 18: 356 steps and 100 divisions, where one tree
    per total degree over every pair takes 687 steps and the full lattice
    below each total degree 1,311.

    A class is derived when its first planned pair comes up and the outputs
    are divided out in key order, each from the expression the x-first
    evaluation reaches, so an unsupported weight fails at the same first
    pair."""
    if N < 0:
        raise ValueError("need N >= 0")
    _, rho_exps, m10, c10, m01, c01 = _assemble(w, case)
    mirror = _mirror(w, case)
    pairs = [(t - m, m) for t in range(N + 1) for m in range(t + 1)]
    classes: Dict[tuple, List[Node]] = {}
    class_of: Dict[Node, List[Node]] = {}
    for n, m in pairs:
        if mirror and n < m:
            continue  # the swap of the (m, n) output
        key = (tuple(n * a + m * b for a, b in zip(m10, m01)), c10**n * c01**m)
        class_of[(n, m)] = members = classes.setdefault(key, [])
        members.append((n, m))
    ready: Dict[Node, WeightedExpr] = {}
    out: Dict[Tuple[int, int], BivariatePoly] = {}
    for pair in pairs:
        n, m = pair
        if pair not in class_of:
            out[pair] = out[(m, n)].swap()
            continue
        if pair not in ready:  # first planned pair of its class: derive the class
            targets = class_of[pair]
            nodes = {(0, 0): _bracket(w, case, *targets[0])}
            for parent, axis, child in derivative_plan(targets):
                nodes[child] = weighted_diff(nodes[parent], axis)
            ready.update((t, nodes[t]) for t in targets)
        out[pair] = _divide_out(ready.pop(pair), rho_exps, n + m)
    return out
