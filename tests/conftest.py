from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta import quad


def to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


@pytest.fixture
def rng():
    import random

    return random.Random(20240911)


@pytest.fixture
def cap_levels(monkeypatch):
    """Make ``quad.integrate_01`` stop after level 1, so no integral converges."""
    real = quad.integrate_01

    def capped(f, tol, precision, max_level=quad.DEFAULT_MAX_LEVEL):
        return real(f, tol, precision, max_level=1)

    monkeypatch.setattr(quad, "integrate_01", capped)


@pytest.fixture
def handed_integrands(monkeypatch):
    """The integrands handed to ``quad.integrate_01`` while the test runs."""
    handed = []
    real = quad.integrate_01

    def capture(f, tol, precision, **kwargs):
        handed.append(f)
        return real(f, tol, precision, **kwargs)

    monkeypatch.setattr(quad, "integrate_01", capture)
    return handed
