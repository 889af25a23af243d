"""Shared numerical and infrastructure utilities.

Small, dependency-free helpers used across the library: a seeded RNG
policy, validation helpers and log-space arithmetic.
"""

from repro.utils.numerics import (
    logsumexp_weighted,
    relative_difference,
    validate_probability_vector,
    validate_square,
)
from repro.utils.rng import make_rng

__all__ = [
    "logsumexp_weighted",
    "make_rng",
    "relative_difference",
    "validate_probability_vector",
    "validate_square",
]
