"""Verification lab for counting primes and polynomial values with
restricted base-q digits via the circle method."""

from .digits import DigitSet, contains, count_below, count_in_ap, enumerate_members
from .errors import CapExceededError, ConfigError, DomainError
from .expsums import IntPolynomial, MangoldtTable, build_mangoldt
from .fourier import FourierContext

__all__ = [
    "CapExceededError",
    "ConfigError",
    "DigitSet",
    "DomainError",
    "FourierContext",
    "IntPolynomial",
    "MangoldtTable",
    "build_mangoldt",
    "contains",
    "count_below",
    "count_in_ap",
    "enumerate_members",
]

__version__ = "0.1.0"
