"""Verification lab for counting primes and polynomial values with
restricted base-q digits via the circle method.

The names of ``__all__`` load from their modules on first use (PEP 562),
so ``import digitlab`` imports no numpy and ``digitlab.cli`` can set its
BLAS thread default before numpy loads."""

import importlib

_HOMES = {
    "CapExceededError": "errors", "ConfigError": "errors",
    "DomainError": "errors", "DigitSet": "digits", "contains": "digits",
    "count_below": "digits", "count_in_ap": "digits",
    "enumerate_members": "digits", "FourierContext": "fourier",
    "IntPolynomial": "expsums", "MangoldtTable": "expsums",
    "build_mangoldt": "expsums",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__),
                   name)
