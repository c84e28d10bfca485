"""Exception hierarchy with machine-readable diagnostic codes.

Every error that can surface through the CLI carries a short ``code`` string
so scripted callers do not have to parse prose.  Exit-code policy lives in
``cli.py``: parse failures exit 1, precondition violations exit 2.
"""


class SymmetryError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __init__(self, message="", **details):
        super().__init__(message)
        self.details = details


class ParseError(SymmetryError):
    """Input text does not conform to the documented grammar."""

    code = "PARSE_ERROR"


class ZeroInput(SymmetryError):
    """An operation received an identically zero polynomial it cannot accept."""

    code = "ZERO_INPUT"


class ZeroDirection(SymmetryError):
    """A direction vector is identically zero."""

    code = "ZERO_DIRECTION"


class CylindricalInput(SymmetryError):
    """The ruling direction is constant up to scale; the surface is cylindrical.

    Cylinders have positive-dimensional symmetry groups and are outside the
    scope of the finite-symmetry pipeline.
    """

    code = "CYLINDRICAL_INPUT"


class PositiveDimensional(SymmetryError):
    """A polynomial system that should be zero-dimensional is not.

    Raised instead of ever returning a wrong finite answer.
    """

    code = "POSITIVE_DIMENSIONAL"


class HeuristicFailure(SymmetryError):
    """The section-plane heuristic could not produce a parametrization."""

    code = "PARAM_HEURISTIC_FAILED"


class NotAnIsometry(SymmetryError):
    """A motion that cannot be a symmetry of a non-cylindrical surface: a
    matrix that should be orthogonal is not, or the motion has infinite
    order."""

    code = "NOT_AN_ISOMETRY"


class PreconditionViolation(SymmetryError):
    """Input violates a documented precondition (e.g. it is reducible)."""

    code = "PRECONDITION_VIOLATION"
