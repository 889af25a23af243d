"""Seeded random-number-generation policy.

The paper fixes the RNG seed so that CodeML and SlimCodeML start the
optimizer from identical tree parameter values (§IV).  Every stochastic
component in this library (tree simulation, sequence simulation, start
values) therefore takes an explicit seed or :class:`numpy.random.Generator`
and routes it through :func:`make_rng`, so a whole experiment is
reproducible from a single integer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

__all__ = ["make_rng"]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread one generator
    through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
