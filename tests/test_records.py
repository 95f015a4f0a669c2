from fractions import Fraction

import pytest

from opde.families import AppellParams, appell_pde
from opde.monic import monic_ttrr
from opde.poly import ONE, X, Y
from opde.relations import DerivRep, QTtrr, StructureSet
from opde.rodrigues import WeightedExpr
from opde.weights import PhiCase, WeightSpec

P23 = AppellParams(2, 3)
PDE = appell_pde(P23)
TTRR = monic_ttrr(PDE, 1)
RECORDS = [
    PDE,
    pytest.param(PDE.shifted(1, 0), id="HypergeometricPDE.shifted"),
    TTRR,
    QTtrr(1, 1, TTRR.a1, TTRR.b1, TTRR.c1),
    StructureSet(1, TTRR.a1, TTRR.b1, TTRR.c1, TTRR.a2, TTRR.b2, TTRR.c2),
    DerivRep(2, 1, TTRR.a1, TTRR.b1, TTRR.a2),
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
