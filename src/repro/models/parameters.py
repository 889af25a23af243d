"""Bounded ↔ unconstrained parameter transforms.

The likelihood is maximised by an unconstrained quasi-Newton method
(paper §II-B), but every model parameter is bounded: ``κ > 0``,
``0 < ω0 < 1``, ``ω2 > 1``, proportions in the simplex, branch lengths
≥ 0.  PAML handles this with constrained line searches; we use the
cleaner smooth-transform approach so the optimizer sees ℝⁿ.

All transforms are monotone bijections with finite slack at the
boundaries (the optimizer cannot push a parameter to an exact bound,
where the likelihood may be singular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Transform",
    "PositiveTransform",
    "IntervalTransform",
    "simplex_pack",
    "simplex_unpack",
    "stick_break_pack",
    "stick_break_unpack",
]

# Unconstrained values are clipped to this range before exponentials so a
# wild optimizer step cannot overflow to inf.
_X_CLIP = 40.0


class Transform:
    """Interface: a monotone bijection between a bounded and ℝ domain."""

    def to_unconstrained(self, theta: float) -> float:
        raise NotImplementedError

    def to_constrained(self, x: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class PositiveTransform(Transform):
    """``θ ∈ (lower, ∞)`` via ``θ = lower + exp(x)``.

    Used for κ, ω2 (with ``lower = 1``), and branch lengths (with a tiny
    ``lower`` so zero-length branches stay representable to ~1e-8).
    """

    lower: float = 0.0

    def to_unconstrained(self, theta: float) -> float:
        theta = float(theta)
        if theta <= self.lower:
            raise ValueError(f"value {theta} must exceed lower bound {self.lower}")
        return math.log(theta - self.lower)

    def to_constrained(self, x: float) -> float:
        return self.lower + math.exp(min(max(float(x), -_X_CLIP), _X_CLIP))


@dataclass(frozen=True)
class IntervalTransform(Transform):
    """``θ ∈ (lo, hi)`` via a logistic map.

    Used for ω0 ∈ (0, 1) and the stick-breaking coordinates of the
    class-proportion simplex.
    """

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def to_unconstrained(self, theta: float) -> float:
        theta = float(theta)
        if not self.lo < theta < self.hi:
            raise ValueError(f"value {theta} outside open interval ({self.lo}, {self.hi})")
        u = (theta - self.lo) / (self.hi - self.lo)
        return math.log(u / (1.0 - u))

    def to_constrained(self, x: float) -> float:
        x = min(max(float(x), -_X_CLIP), _X_CLIP)
        u = 1.0 / (1.0 + math.exp(-x))
        return self.lo + (self.hi - self.lo) * u


def simplex_pack(p0: float, p1: float) -> tuple[float, float]:
    """Stick-breaking coordinates for ``(p0, p1)`` with ``p0 + p1 < 1``.

    Returns unconstrained ``(x_total, x_split)`` where
    ``total = p0 + p1`` and ``split = p0 / total``.  The remaining mass
    ``1 - p0 - p1`` is the positively-selected proportion of Table I.
    """
    p0, p1 = float(p0), float(p1)
    total = p0 + p1
    if not (0.0 < p0 and 0.0 < p1 and total < 1.0):
        raise ValueError(f"(p0, p1) = ({p0}, {p1}) must be interior simplex points")
    unit = IntervalTransform(0.0, 1.0)
    return unit.to_unconstrained(total), unit.to_unconstrained(p0 / total)


def simplex_unpack(x_total: float, x_split: float) -> tuple[float, float]:
    """Inverse of :func:`simplex_pack`."""
    unit = IntervalTransform(0.0, 1.0)
    total = unit.to_constrained(x_total)
    split = unit.to_constrained(x_split)
    return total * split, total * (1.0 - split)


def stick_break_pack(weights: "list[float] | tuple[float, ...]") -> "list[float]":
    """Stick-breaking coordinates for K weights with ``sum(weights) < 1``.

    Generalises :func:`simplex_pack` to any K: the first coordinate is
    the logit of the total mass, each subsequent one the logit of the
    next weight's share of what remains.  ``K = 2`` reproduces
    ``simplex_pack`` exactly (same arithmetic, same order), which is
    what keeps the 2-class BS-REL model bit-compatible with model A.
    """
    ws = [float(w) for w in weights]
    total = sum(ws)
    if not (all(w > 0.0 for w in ws) and total < 1.0):
        raise ValueError(f"weights {ws} must be positive with sum < 1")
    unit = IntervalTransform(0.0, 1.0)
    coords = [unit.to_unconstrained(total)]
    remaining = total
    for w in ws[:-1]:
        coords.append(unit.to_unconstrained(w / remaining))
        remaining -= w
    return coords


def stick_break_unpack(coords: "list[float] | np.ndarray") -> "list[float]":
    """Inverse of :func:`stick_break_pack` (K coords → K weights)."""
    coords = [float(c) for c in coords]
    unit = IntervalTransform(0.0, 1.0)
    remaining = unit.to_constrained(coords[0])
    ws = []
    for c in coords[1:]:
        share = unit.to_constrained(c)
        ws.append(remaining * share)
        remaining = remaining * (1.0 - share)
    ws.append(remaining)
    return ws
