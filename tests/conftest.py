import importlib
import pkgutil
from fractions import Fraction

import mpmath as mp
import pytest

import oddzeta
from oddzeta import quad


def _library_caches() -> tuple:
    """Every object with ``cache_clear`` in the library modules, once each."""
    found = {}
    for info in pkgutil.iter_modules(oddzeta.__path__):
        module = importlib.import_module(f"oddzeta.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return tuple(found.values())


# collected at import, before any test replaces a module attribute, so the
# reset still reaches a cache whose function a test has patched over
LIBRARY_CACHES = _library_caches()


def to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


@pytest.fixture
def rng():
    import random

    return random.Random(20240911)


@pytest.fixture
def cold_caches():
    """Empty every library cache before and after the test; yields the caches.

    A test that corrupts an input (a Bernoulli number, say) needs the values
    derived from it recomputed, and must not leave them behind for later tests.
    """
    for cached in LIBRARY_CACHES:
        cached.cache_clear()
    yield LIBRARY_CACHES
    for cached in LIBRARY_CACHES:
        cached.cache_clear()


@pytest.fixture
def cap_levels(monkeypatch):
    """Make the level loop of every engine stop after level 1, so no integral converges."""
    monkeypatch.setattr(quad, "MAX_LEVEL", 1)
