"""Likelihood ratio test for positive selection.

The branch-site test compares H1 (ω2 free, ≥ 1) against H0 (ω2 = 1)
with ``2Δ = 2(lnL₁ − lnL₀)``.  Because ω2 = 1 sits on the boundary of
the H1 parameter space, the asymptotic null is the 50:50 mixture of a
point mass at 0 and χ²₁ (Self & Liang); PAML's manual recommends the
plain χ²₁ as a conservative test.  Both p-values are reported.

The χ² upper tail comes from :func:`scipy.special.chdtrc`, the routine
SciPy's ``chi2.sf`` itself calls; importing SciPy's statistics package
for this one call would more than double the start-up time of every
CLI process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special

__all__ = ["LRTResult", "likelihood_ratio_test", "holm_correction"]


@dataclass(frozen=True)
class LRTResult:
    """Outcome of a likelihood ratio test."""

    lnl_null: float
    lnl_alternative: float
    statistic: float
    df: int
    #: Conservative χ²_df p-value (PAML's recommendation).
    pvalue_chi2: float
    #: Boundary-corrected 50:50 mixture p-value (½·χ²_df tail).
    pvalue_mixture: float

    def significant(self, alpha: float = 0.05, conservative: bool = True) -> bool:
        """Significance at level ``alpha`` (conservative χ² by default)."""
        p = self.pvalue_chi2 if conservative else self.pvalue_mixture
        return p < alpha


def likelihood_ratio_test(lnl_null: float, lnl_alternative: float, df: int = 1) -> LRTResult:
    """Build an :class:`LRTResult` from the two fitted log-likelihoods.

    A slightly *negative* statistic (alternative below null) can occur
    when the optimizer stops early; it is clamped to zero — the standard
    practical convention — since H0 ⊂ H1 guarantees the true maximised
    difference is non-negative.

    A non-finite log-likelihood means a failed fit, and no test can be
    read from it: it raises :class:`ValueError`.
    """
    if df < 1:
        raise ValueError(f"df must be ≥ 1, got {df}")
    for name, value in (("lnl_null", lnl_null), ("lnl_alternative", lnl_alternative)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    statistic = 2.0 * (lnl_alternative - lnl_null)
    clamped = max(statistic, 0.0)
    tail = float(scipy.special.chdtrc(df, clamped))
    if clamped == 0.0:
        pvalue_chi2 = 1.0
        pvalue_mixture = 1.0
    else:
        pvalue_chi2 = tail
        pvalue_mixture = 0.5 * tail
    return LRTResult(
        lnl_null=float(lnl_null),
        lnl_alternative=float(lnl_alternative),
        statistic=clamped,
        df=df,
        pvalue_chi2=pvalue_chi2,
        pvalue_mixture=pvalue_mixture,
    )


def holm_correction(pvalues: Sequence[float]) -> np.ndarray:
    """Holm-Bonferroni step-down adjusted p-values.

    The multiple-testing correction for the all-branches survey (HyPhy's
    BranchSiteREL reports the same): with ``m`` branch tests, the i-th
    smallest raw p-value is multiplied by ``m − i``, running maxima
    enforce monotonicity, and values are capped at 1.  Rejecting
    adjusted p-values below α controls the family-wise error rate at α
    under arbitrary dependence — strictly more powerful than plain
    Bonferroni, never less.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d p-value array, got shape {p.shape}")
    if p.size == 0:
        return p.copy()
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must be finite and within [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m, dtype=float)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted
