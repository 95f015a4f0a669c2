from fractions import Fraction

import pytest

from opde.families import AppellParams, appell_pde
from opde.monic import monic_ttrr
from opde.poly import ONE, X, Y
from opde.relations import monic_derivative_representation, monic_structure_matrices
from opde.rodrigues import WeightedExpr
from opde.weights import PhiCase, WeightSpec

P23 = AppellParams(2, 3)
PDE = appell_pde(P23)
RECORDS = [
    PDE,
    pytest.param(PDE.shifted(1, 0), id="HypergeometricPDE.shifted"),
    PhiCase("-", "rho alone", ONE, ONE),
    P23,
    WeightSpec(1, 2, ((1 - X - Y, 3),)),
    WeightedExpr((X, Y), (Fraction(1), Fraction(2)), ONE),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict to put it in


def test_relation_results_are_immutable():
    # the closed-form routes cache their results per equation, so a caller
    # must not be able to change one: each is a tuple of matrix triples
    phi = X * (1 - X - Y), Y * (1 - X - Y)
    for pair in (monic_ttrr(PDE, 1), monic_structure_matrices(PDE, *phi, 1)):
        assert type(pair) is tuple and all(type(t) is tuple for t in pair)
        with pytest.raises(TypeError):
            pair[0] = pair[1]
        with pytest.raises(TypeError):
            pair[0][1] = pair[0][0]
    triple = monic_derivative_representation(PDE, 2, 1)
    assert type(triple) is tuple and len(triple) == 3
    with pytest.raises(TypeError):
        triple[0] = triple[1]


def test_validated_records_still_validate():
    with pytest.raises(ValueError):
        AppellParams(0, 1)
    with pytest.raises(ValueError):
        WeightedExpr((X, Y), (Fraction(1),), ONE)
    with pytest.raises(ValueError):
        WeightSpec(0, 0, ((ONE, 1),))
    with pytest.raises(TypeError):
        AppellParams(0.5, 1)


def test_validated_records_normalise_their_fields():
    w = WeightSpec(1, 2, ((1 - X - Y, 3),))
    assert type(w.u) is Fraction and type(w.v) is Fraction
    assert w.factors == ((1 - X - Y, Fraction(3)),) and type(w.factors[0][1]) is Fraction
    assert type(AppellParams(2, 3).alpha) is Fraction
    assert AppellParams(alpha=2, beta=3) == P23 and hash(AppellParams(2, 3)) == hash(P23)
