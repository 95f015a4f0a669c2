"""Exception hierarchy shared by all opde modules."""

from __future__ import annotations


class OpdeError(Exception):
    """Base class for all library errors."""


class NotDivisible(OpdeError):
    """Exact polynomial division was requested but no polynomial quotient exists."""


class DivisionByZeroPoly(OpdeError):
    """Division by the zero polynomial."""


class DegreeOverflow(OpdeError):
    """A polynomial-vector entry exceeds the declared total degree."""


class InconsistentRecursion(OpdeError):
    """The x-row and y-row halves of the joint recursion disagree where they
    overlap, so the recurrence matrices do not fit one monic family.
    ``degree`` is the degree being built."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"x- and y-recursions disagree at degree {degree}")


class NotAdmissible(OpdeError):
    """Some eigenvalue gap a*k + e vanishes; the equation has no unique polynomial family.

    ``index`` is the first offending k.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"equation is not admissible: a*k + e = 0 at k = {index}")


class NotSelfAdjoint(OpdeError):
    """The equation admits no integrating-factor weight (compatibility condition fails)."""


class DegenerateDiscriminant(OpdeError):
    """The discriminant is identically zero; weight-related operations are undefined."""


class NoCaseMatches(OpdeError):
    """The equation fits none of the ten closed-form weight-factor cases."""


class NonPolynomialPhi(OpdeError):
    """A closed-form weight-factor quotient failed exact division.

    Signals either a misclassification or a defect in the closed-form table.
    """


class SingularMatrix(OpdeError):
    """Matrix inversion of a singular matrix was attempted."""


class SingularLeading(OpdeError):
    """A leading expansion matrix G_{k,k} is singular, so recurrence
    coefficients cannot be read off.  ``degree`` is the offending k."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"leading expansion matrix at degree {degree} is singular")


class NotReducible(OpdeError):
    """A weighted expression cannot be divided by the weight inside the
    supported class (non-integer or non-divisible residual exponents)."""


class DegreeMismatch(OpdeError):
    """A Rodrigues output does not have the expected total degree."""


class IndexOutOfPrintedRange(OpdeError):
    """A reference closed-form matrix was requested outside the degree range
    for which its entry table is valid."""


class PhiDegreeTooHigh(OpdeError):
    """Structure relations require the weight-shift factor to be quadratic."""
