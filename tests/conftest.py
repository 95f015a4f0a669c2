from contextlib import contextmanager
from fractions import Fraction

import pytest

from opde.families import AppellParams, appell_pde
from opde.monic import build_monic

_FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                       "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
                       "__rpow__", "__neg__", "__pos__", "__abs__")


@contextmanager
def _counting_fraction_operators():
    """Count every call of an arithmetic operator of Fraction while active."""
    count = [0]
    saved = {name: getattr(Fraction, name) for name in _FRACTION_OPERATORS}

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    try:
        for name, fn in saved.items():
            setattr(Fraction, name, counted(fn))
        yield count
    finally:
        for name, fn in saved.items():
            setattr(Fraction, name, fn)


@pytest.fixture
def fraction_ops():
    """``with fraction_ops() as count:`` counts Fraction arithmetic in the block
    into ``count[0]``."""
    return _counting_fraction_operators


@pytest.fixture(scope="session")
def p11():
    return AppellParams(Fraction(1), Fraction(1))


@pytest.fixture(scope="session")
def p23():
    return AppellParams(Fraction(2), Fraction(3))


@pytest.fixture(scope="session")
def fam11(p11):
    return build_monic(appell_pde(p11), 9)


@pytest.fixture(scope="session")
def fam23(p23):
    return build_monic(appell_pde(p23), 9)
