"""Exception types shared across the package."""


class OddzetaError(Exception):
    """Base class for all library-specific errors."""


class DomainError(OddzetaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GradingError(OddzetaError, ValueError):
    """A pi-grading constraint was violated.

    Raised when an operation would introduce a negative pi-exponent into a
    polynomial that is required to stay polynomial in pi.
    """


class NonFiniteSample(OddzetaError, ArithmeticError):
    """An integrand returned inf or nan, which indicates a bug in the integrand."""


class NoConvergence(OddzetaError, ArithmeticError):
    """An integral missed its tolerance on a route that returns a bare value.

    The message names the route, its argument, the final error estimate and
    the last level.
    """


class LemmaViolation(OddzetaError, ArithmeticError):
    """An exact sine-moment integral failed to collapse to -1/pi.

    This cannot happen for a correct polynomial pipeline; it signals corrupted
    Bernoulli data or a broken series expansion upstream.
    """


class IdentityViolation(OddzetaError, ArithmeticError):
    """An exact polynomial identity that the construction guarantees failed.

    Raised when the closed form of P_2p disagrees with the Cauchy product, or
    when a polynomial factor does not vanish at t = 1 to cancel the
    tan(pi t/2) pole; either signals corrupted exact data upstream.
    """


class ArityError(OddzetaError, ValueError):
    """An argument list does not have the declared length."""
