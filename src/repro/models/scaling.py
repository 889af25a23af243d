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

from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.codon.classify import classification_table
from repro.codon.genetic_code import GeneticCode, UNIVERSAL
from repro.codon.matrix import CodonRateMatrix, build_rate_matrix, mean_rate
from repro.models.base import SiteClass

__all__ = ["mixture_scale", "build_class_matrices", "RawRateForm"]


def _raw_rate(kappa: float, omega: float, pi: np.ndarray, code: GeneticCode) -> float:
    """Mean rate of the unscaled Q(κ, ω)."""
    raw = build_rate_matrix(kappa, omega, pi, code=code, scale="none")
    return mean_rate(raw.q, pi)


class RawRateForm:
    """The unscaled mean rate as a function of (κ, ω), with no Q built.

    ``−Σ_i π_i q_ii = πᵀRπ`` and ``R_ij = κ^[transition]·ω^[non-synonymous]``
    on single-nucleotide pairs, so the rate is bilinear,
    ``a + b·κ + c·ω + d·κ·ω``, with each coefficient the ``π_iπ_j`` mass
    of one pair class of :func:`classification_table`.  It agrees with
    :func:`mean_rate` of the built matrix to rounding, not bit for bit:
    callers that difference the rate (the optimizer's mixture Jacobian)
    read it, the likelihood's own normalisation does not.
    """

    def __init__(self, pi: np.ndarray, code: GeneticCode = UNIVERSAL) -> None:
        table = classification_table(code)
        mass = np.outer(pi, pi)
        ts = table.single & table.transition
        ns = table.single & ~table.synonymous
        self.a = float(mass[table.single & ~ts & ~ns].sum())
        self.b = float(mass[ts & ~ns].sum())
        self.c = float(mass[~ts & ns].sum())
        self.d = float(mass[ts & ns].sum())

    def __call__(self, kappa: float, omega: float) -> float:
        return self.a + self.b * kappa + (self.c + self.d * kappa) * omega


def mixture_scale(
    kappa: float,
    classes: Sequence[SiteClass],
    pi: np.ndarray,
    code: GeneticCode = UNIVERSAL,
    raw_rate: Optional[Callable[[float, float], float]] = None,
) -> float:
    """Common normalisation factor for a site-class mixture (see module doc).

    ``raw_rate(κ, ω)`` gives the unscaled mean rate of Q(κ, ω); by
    default each class's background matrix is built and read.
    """
    factor = 0.0
    for cls in classes:
        omega = cls.omega_background
        rate = _raw_rate(kappa, omega, pi, code) if raw_rate is None else raw_rate(kappa, omega)
        factor += cls.proportion * rate
    if factor <= 0:
        raise ValueError("mixture mean rate must be positive")
    return factor


def build_class_matrices(
    kappa: float,
    classes: Sequence[SiteClass],
    pi: np.ndarray,
    code: GeneticCode = UNIVERSAL,
    rates: Optional[Dict[float, float]] = None,
    lent: Optional[Mapping[float, CodonRateMatrix]] = None,
) -> Dict[float, CodonRateMatrix]:
    """Build one commonly-scaled rate matrix per distinct ω in the mixture.

    Returns a dict keyed by ω value (both branch categories pooled); the
    branch-site model yields at most three entries however large the
    tree, which is what bounds the per-evaluation eigendecomposition
    count (§II-C1).  Each distinct ω is built once, unscaled: its mean
    rate feeds :func:`mixture_scale`, and the scaled matrix divides it
    by the common factor — the arithmetic of ``build_rate_matrix`` with
    ``scale=factor``, so Q, S and ``scale`` are bit-identical to it.

    ``lent`` holds matrices of an earlier call at the same κ, π and code,
    and ``rates`` (read and filled) the unscaled mean rates by ω at this
    κ.  A lent ω is returned as the lent object, not built again, when
    the common factor comes out equal to its scale; its rate is read
    from ``rates``, so only an ω whose rate is unknown is built for the
    factor alone.  Everything returned is bit-identical to a call
    without them.
    """
    rates = {} if rates is None else rates
    lent = {} if lent is None else lent
    omegas = list(dict.fromkeys(
        omega for cls in classes for omega in (cls.omega_background, cls.omega_foreground)
    ))
    backgrounds = {cls.omega_background for cls in classes}
    raw: Dict[float, CodonRateMatrix] = {}

    def build(omega: float) -> None:
        raw[omega] = build_rate_matrix(kappa, omega, pi, code=code, scale="none")
        rates[omega] = mean_rate(raw[omega].q, pi)

    for omega in omegas:
        if omega not in lent or (omega in backgrounds and omega not in rates):
            build(omega)
    factor = float(mixture_scale(kappa, classes, pi, code, lambda _, omega: rates[omega]))
    if any(lent[omega].scale != factor for omega in omegas if omega not in raw):
        for omega in omegas:
            if omega not in raw:
                build(omega)
    matrices = {}
    for omega in omegas:
        m = raw.get(omega)
        if m is None:
            matrices[omega] = lent[omega]
            continue
        q = m.q / factor
        matrices[omega] = CodonRateMatrix(
            q=q, s=q / m.pi[None, :], pi=m.pi, kappa=kappa, omega=omega, scale=factor
        )
    return matrices
