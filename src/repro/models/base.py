"""Common interface for codon site-class models.

A *site-class model* is a finite mixture: each alignment column belongs
(with fixed prior probability) to a class that prescribes an ω for every
branch category.  The branch-site model A distinguishes two categories —
*background* and *foreground* (paper Table I) — and every other CodeML
model is the degenerate case where the two categories share ω.

The engine layer consumes only :meth:`CodonSiteModel.site_classes`
(proportions + per-category ω) and the pack/unpack transforms, so new
models plug in without engine changes — the paper's "further maximum
likelihood-based evolutionary models" future-work point (§V-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.class_graph import SiteClassGraph

__all__ = ["SiteClass", "CodonSiteModel"]


@dataclass(frozen=True)
class SiteClass:
    """One mixture component: prior proportion and per-category ω.

    ``positive`` marks classes whose foreground ω may exceed 1 — the
    classes BEB/NEB report on — so downstream consumers look the flag up
    structurally instead of matching hard-coded labels or indices.
    """

    label: str
    proportion: float
    omega_background: float
    omega_foreground: float
    positive: bool = False

    def __post_init__(self) -> None:
        # NaN fails both comparisons below (``not NaN <= 1`` is True) so a
        # NaN proportion raises too; the explicit isfinite checks are for
        # the ω values, where ``NaN < 0`` is silently False and a NaN
        # would otherwise propagate into the rate matrices and only
        # surface later as a non-finite-CLV recovery event.
        if not 0.0 <= self.proportion <= 1.0:
            raise ValueError(f"class {self.label!r} proportion {self.proportion} outside [0,1]")
        if not (math.isfinite(self.omega_background) and math.isfinite(self.omega_foreground)):
            raise ValueError(f"class {self.label!r} has a non-finite omega")
        if self.omega_background < 0 or self.omega_foreground < 0:
            raise ValueError(f"class {self.label!r} has a negative omega")


class CodonSiteModel:
    """Abstract base: a parameterised site-class mixture.

    Concrete models define:

    * :attr:`param_names` — ordered free-parameter names;
    * :meth:`pack` / :meth:`unpack` — bounded dict ↔ unconstrained vector;
    * :meth:`site_classes` — the mixture for given parameter values;
    * :meth:`default_start` — optimizer start values (seedable, since the
      paper fixes the RNG seed to equalise start points, §IV).
    """

    #: Ordered names of the free parameters (class attribute).
    param_names: Tuple[str, ...] = ()
    #: Human-readable model name (e.g. "branch-site model A (H1)").
    name: str = "abstract"
    #: True when the model distinguishes branch categories, so the tree
    #: must carry exactly one foreground mark (branch-site models).
    requires_foreground: bool = False

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    # -- interface ------------------------------------------------------
    def pack(self, values: Dict[str, float]) -> np.ndarray:
        """Map a bounded parameter dict to an unconstrained vector."""
        raise NotImplementedError

    def unpack(self, x: Sequence[float]) -> Dict[str, float]:
        """Inverse of :meth:`pack`."""
        raise NotImplementedError

    def site_classes(self, values: Dict[str, float]) -> List[SiteClass]:
        """Mixture components for the given parameter values."""
        raise NotImplementedError

    def site_class_graph(self, values: Dict[str, float]) -> "SiteClassGraph":
        """The validated class graph for the given parameter values.

        Default: build the graph straight from :meth:`site_classes`.
        Class sharing is *derived* from operator identity (equal ω per
        branch partition) by :meth:`SiteClassGraph.plan`, so models
        never declare alias pairs by hand.
        """
        from repro.models.class_graph import SiteClassGraph

        return SiteClassGraph.from_classes(self.site_classes(values))

    def default_start(self, rng: np.random.Generator | None = None) -> Dict[str, float]:
        """Reasonable start values, optionally jittered by ``rng``."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def validate(self, values: Dict[str, float]) -> Dict[str, float]:
        """Check that exactly the expected parameters are present."""
        expected = set(self.param_names)
        got = set(values)
        if expected != got:
            missing, extra = expected - got, got - expected
            raise ValueError(
                f"{self.name}: parameter mismatch"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; unexpected {sorted(extra)}" if extra else "")
            )
        return values

    def check_roundtrip(self, values: Dict[str, float], atol: float = 1e-9) -> None:
        """Assert ``unpack(pack(v)) == v`` (used by property tests)."""
        back = self.unpack(self.pack(values))
        for key, val in values.items():
            if abs(back[key] - val) > atol * max(1.0, abs(val)):
                raise AssertionError(f"round-trip failed for {key}: {val} -> {back[key]}")

    def proportions(self, values: Dict[str, float]) -> np.ndarray:
        """Class proportions as an array (sums to 1)."""
        props = np.array([c.proportion for c in self.site_classes(values)])
        if not np.isclose(props.sum(), 1.0):
            raise AssertionError(f"{self.name}: class proportions sum to {props.sum()}")
        return props

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={list(self.param_names)})"
