"""Exception types shared across the package."""


class OddzetaError(Exception):
    """Base class for all library-specific errors."""


class DomainError(OddzetaError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    This includes a pi-grading violation: an operation that would put a
    negative pi-exponent into a polynomial required to stay polynomial in pi.
    """


class NonFiniteSample(OddzetaError, ArithmeticError):
    """An integrand returned inf or nan, which indicates a bug in the integrand."""


class NoConvergence(OddzetaError, ArithmeticError):
    """An integral missed its tolerance on a route that returns a bare value.

    The message names the route, its argument, the final error estimate and
    the last level.
    """


class IdentityViolation(OddzetaError, ArithmeticError):
    """An exact polynomial identity that the construction guarantees failed.

    Three identities raise it: the closed form of P_2p disagreeing with the
    Cauchy product coefficient w_2p; a polynomial factor not vanishing at
    t = 1 to cancel the tan(pi t/2) pole; and the sine moment of P_2p not
    collapsing to exactly -1/pi.  Each signals corrupted exact data upstream,
    such as a wrong Bernoulli number or a broken series expansion.
    """
