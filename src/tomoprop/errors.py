"""Exception hierarchy.

Two top branches matter for the CLI: bad configuration / bad inputs
(exit code 2) versus numerical-domain failures such as caustics and
singular times (exit code 4).
"""


class TomopropError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TomopropError):
    """Arguments violate a documented precondition."""


class UnsupportedStateError(InvalidInputError):
    """State preset outside the supported family (e.g. Hermite index too large)."""


class UnsupportedPotentialError(InvalidInputError):
    """Potential outside the class an operation supports."""


class InvalidFrameError(InvalidInputError):
    """Degenerate tomographic frame mu = nu = 0."""


class NumericalDomainError(TomopropError):
    """Evaluation requested at a point where the formula is singular or undefined."""


class SingularTimeError(NumericalDomainError):
    """Kernel undefined at t = 0."""


class CausticError(NumericalDomainError):
    """Kernel undefined at a caustic, where m01 = dx(t)/dp(0) of the classical flow vanishes."""
