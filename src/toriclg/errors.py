"""Exception hierarchy shared by all modules.

Every domain failure derives from DomainError so the CLI can map
exceptions to exit codes uniformly: exit_code 2 for bad input data,
3 for a transformation that fails midway, 4 for guarded blowups.
"""


class DomainError(Exception):
    exit_code = 2


class ParseError(DomainError):
    """Syntax error in a polynomial expression; position is 0-based."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotLaurent(DomainError):
    """A substitution or parsed division left the Laurent ring."""

    exit_code = 3


class NotDivisible(DomainError):
    """exact_divide found a nonzero remainder."""


class DivisionByZero(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class NotUnimodular(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class EmptyInput(DomainError):
    pass


class InvalidDimension(DomainError):
    pass


class NotTwoDimensional(DomainError):
    pass


class ComplexityLimit(DomainError):
    exit_code = 4


class InvalidChange(DomainError):
    """A mutation step or trace that is malformed before anything is applied."""


class NotFano(DomainError):
    pass


class NotMarkov(DomainError):
    pass


class NotWeightedTriangle(DomainError):
    pass


class CoordinateSearchFailed(DomainError):
    exit_code = 3


class OriginNotInterior(DomainError):
    pass


class InvalidCone(DomainError):
    pass


class InvalidCosection(DomainError):
    pass


class UnboundedSlice(DomainError):
    exit_code = 3


class NotLattice(DomainError):
    exit_code = 3


class InvalidDecomposition(DomainError):
    pass


class BadFactorization(DomainError):
    exit_code = 3


class PivotDegreeOutOfRange(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass
