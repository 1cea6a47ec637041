"""Exception types shared across the package."""


class OddzetaError(Exception):
    """Base class for all library-specific errors."""


class DomainError(OddzetaError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    This includes a pi-grading violation: an operation that would put a
    negative pi-exponent into a polynomial required to stay polynomial in pi,
    or a sum of two nonzero PiPolys at different pi exponents (a PiPoly is
    pi^e / den times one integer polynomial); the message names both.
    """


class NoConvergence(OddzetaError, ArithmeticError):
    """An integral missed its tolerance on a route that returns a bare value.

    The message names the route, its argument, the final error estimate and
    the last level.
    """


class IdentityViolation(OddzetaError, ArithmeticError):
    """An exact polynomial identity that the construction guarantees failed.

    Three identities raise it: P_2p(1) = -[z^2p] csc(pi z) sin(pi z) not
    vanishing when P_2p is built from the Cauchy product; a polynomial
    factor not vanishing at t = 1 to cancel the tan(pi t/2) pole; and the
    sine moment of P_2p not collapsing to exactly -1/pi.  Each message names
    the polynomial and what survived; from ``zeta_odd`` it also names the
    route.  Each signals corrupted exact data upstream, such as a wrong
    Bernoulli number or a broken series expansion.
    """
