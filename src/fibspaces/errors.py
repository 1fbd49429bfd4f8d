"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit-code mapping):
``ParseError`` for malformed textual input, ``DomainError`` for inputs that
parse fine but violate a mathematical precondition.
"""


class FibspacesError(Exception):
    pass


class ParseError(FibspacesError, ValueError):
    """Malformed rational / sequence / matrix / spec text."""


class DomainError(FibspacesError, ValueError):
    """Input violates a documented precondition."""


class NotStrictlyIncreasing(DomainError):
    pass


class NonPositiveStart(DomainError):
    pass


class SingularDiagonal(DomainError):
    pass


class DivergentTail(DomainError):
    """Requested a reciprocal-tail quantity for a weight family whose
    reciprocals are not summable."""


class UnknownWitness(DomainError):
    pass


class MissingExponent(DomainError):
    pass


class WindowMismatch(DomainError):
    pass


class UnsupportedPair(DomainError):
    """No characterization is implemented for this (source, target) pair."""


class UnsupportedTarget(DomainError):
    pass


class AlphaLimitUndetermined(DomainError):
    """Column limits requested but the columns do not stabilize exactly."""


class NegativeBaseError(DomainError):
    """x ** p with x < 0 and non-integer p."""
