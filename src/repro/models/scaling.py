"""Shared rate normalisation across site classes.

For mixture models a branch length must mean the same thing in every
site class, so CodeML divides *all* class rate matrices by one common
factor instead of normalising each to unit mean rate.  We define that
factor as the class-proportion-weighted mean of the raw (unscaled) mean
rates of the **background** processes — background branches are every
branch but one, so this makes ``t`` ≈ expected substitutions per codon
on background branches, with the foreground branch evolving faster when
ω2 > 1.

Both the likelihood engines and the sequence simulator go through
:func:`build_class_matrices`, so simulated data and inference agree on
what a branch length is.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.codon.genetic_code import GeneticCode, UNIVERSAL
from repro.codon.matrix import CodonRateMatrix, build_rate_matrix, mean_rate
from repro.models.base import SiteClass

__all__ = ["mixture_scale", "build_class_matrices"]


def _raw_rate(kappa: float, omega: float, pi: np.ndarray, code: GeneticCode) -> float:
    """Mean rate of the unscaled Q(κ, ω)."""
    raw = build_rate_matrix(kappa, omega, pi, code=code, scale="none")
    return mean_rate(raw.q, pi)


def mixture_scale(
    kappa: float,
    classes: Sequence[SiteClass],
    pi: np.ndarray,
    code: GeneticCode = UNIVERSAL,
    rates: Optional[Dict[Tuple[float, float], float]] = None,
) -> float:
    """Common normalisation factor for a site-class mixture (see module doc).

    ``rates`` optionally carries raw mean rates keyed by ``(κ, ω)``
    across calls with the same ``pi`` and ``code`` (a caller that varies
    one parameter at a time rebuilds only the matrices it moved).
    """
    factor = 0.0
    rate_cache: Dict[Tuple[float, float], float] = {} if rates is None else rates
    for cls in classes:
        key = (kappa, cls.omega_background)
        if key not in rate_cache:
            rate_cache[key] = _raw_rate(kappa, cls.omega_background, pi, code)
        factor += cls.proportion * rate_cache[key]
    if factor <= 0:
        raise ValueError("mixture mean rate must be positive")
    return factor


def build_class_matrices(
    kappa: float,
    classes: Sequence[SiteClass],
    pi: np.ndarray,
    code: GeneticCode = UNIVERSAL,
) -> Dict[float, CodonRateMatrix]:
    """Build one commonly-scaled rate matrix per distinct ω in the mixture.

    Returns a dict keyed by ω value (both branch categories pooled); the
    branch-site model yields at most three entries however large the
    tree, which is what bounds the per-evaluation eigendecomposition
    count (§II-C1).  Each distinct ω is built once, unscaled: its mean
    rate feeds :func:`mixture_scale`, and the scaled matrix divides it
    by the common factor — the arithmetic of ``build_rate_matrix`` with
    ``scale=factor``, so Q, S and ``scale`` are bit-identical to it.
    """
    raw: Dict[float, CodonRateMatrix] = {}
    for cls in classes:
        for omega in (cls.omega_background, cls.omega_foreground):
            if omega not in raw:
                raw[omega] = build_rate_matrix(kappa, omega, pi, code=code, scale="none")
    rates = {(kappa, omega): mean_rate(m.q, pi) for omega, m in raw.items()}
    factor = float(mixture_scale(kappa, classes, pi, code, rates))
    matrices = {}
    for omega, m in raw.items():
        q = m.q / factor
        matrices[omega] = CodonRateMatrix(
            q=q, s=q / m.pi[None, :], pi=m.pi, kappa=kappa, omega=omega, scale=factor
        )
    return matrices
