"""Empirical Bayes identification of positively selected sites.

After a significant LRT, the paper's workflow (§I-A, citing Yang, Wong &
Nielsen 2005) computes the posterior probability that each codon site
belongs to a positively selected class (2a/2b of Table I):

* **NEB** (naive empirical Bayes): posterior at the MLEs — fast, but
  ignores parameter uncertainty.
* **BEB** (Bayes empirical Bayes): integrates over a prior grid of
  mixture parameters.  Following the spirit of YWN 2005 we place uniform
  grids on the proportion coordinates (``total = p0+p1`` and
  ``split = p0/total``) and on ``ω2``; κ, ω0 and branch lengths are
  fixed at their MLEs (a documented simplification — YWN grid ω0 too).

Both return per-*site* probabilities (patterns expanded back).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.engine import BoundLikelihood
from repro.likelihood.mixture import class_posteriors
from repro.utils.numerics import logsumexp_weighted

__all__ = ["SiteProbabilities", "neb_site_probabilities", "beb_site_probabilities"]


def _positive_indices(bound: BoundLikelihood, values: Dict[str, float]) -> list:
    """Positively-selected class indices from the model's class graph.

    The graph's structural ``positive`` flags replace the old hard-coded
    ``(2, 3)`` tuple (model A's 2a/2b) — any N-class model that marks
    its selected classes works, in whatever order it lists them.
    """
    positive = list(bound.model.site_class_graph(values).positive_indices)
    if not positive:
        raise ValueError(
            f"model {type(bound.model).__name__} declares no positively-selected "
            "site classes; empirical Bayes has nothing to report on"
        )
    return positive


@dataclass
class SiteProbabilities:
    """Per-site posterior probabilities of positive selection.

    Attributes
    ----------
    probabilities:
        ``(n_sites,)`` posterior P(class ∈ {2a, 2b} | data) per codon.
    class_probabilities:
        ``(n_classes, n_sites)`` full posterior per class.
    method:
        ``"NEB"`` or ``"BEB"``.
    """

    probabilities: np.ndarray
    class_probabilities: np.ndarray
    method: str

    def selected_sites(self, threshold: float = 0.95) -> np.ndarray:
        """1-based codon positions with posterior above ``threshold``."""
        return np.flatnonzero(self.probabilities > threshold) + 1


def neb_site_probabilities(
    bound: BoundLikelihood,
    values: Dict[str, float],
    branch_lengths: Optional[Sequence[float]] = None,
) -> SiteProbabilities:
    """Naive empirical Bayes: class posteriors at the given MLEs."""
    ev = bound.class_evaluation(values, branch_lengths)
    post = class_posteriors(ev.class_lnl, ev.proportions)
    per_site = bound.patterns.expand(post, axis=1)
    positive = per_site[_positive_indices(bound, values), :].sum(axis=0)
    return SiteProbabilities(
        probabilities=positive, class_probabilities=per_site, method="NEB"
    )


def _proportion_grid(n: int) -> np.ndarray:
    """Midpoint grid on (0, 1): (2k+1)/(2n) for k = 0..n−1 (YWN style)."""
    return (2 * np.arange(n) + 1) / (2 * n)


def beb_site_probabilities(
    bound: BoundLikelihood,
    values: Dict[str, float],
    branch_lengths: Optional[Sequence[float]] = None,
    n_proportion_grid: int = 10,
    n_omega2_grid: int = 10,
    omega2_max: float = 11.0,
) -> SiteProbabilities:
    """Bayes empirical Bayes over a (total, split, ω2) prior grid.

    The posterior over grid cells ``g`` is
    ``W(g) ∝ prior(g) · Π_s L_s(g)^{w_s}`` (computed in log space), and
    the per-site class posterior is the W-weighted average of the
    per-cell NEB posteriors.

    Under H0 (no ``omega2`` in ``values``) ω2 is held at 1 and only the
    proportion grid is integrated.
    """
    grid = _proportion_grid(n_proportion_grid)
    if "omega2" in values:
        omega2_grid = 1.0 + (_proportion_grid(n_omega2_grid) * (omega2_max - 1.0))
    else:
        omega2_grid = np.array([1.0])

    weights = bound.patterns.weights
    n_classes_expected = 4

    # Per ω2 grid value: the (4, n_patterns) class log-likelihood matrix.
    class_lnls = []
    for omega2 in omega2_grid:
        vals = dict(values)
        if "omega2" in vals:
            vals["omega2"] = float(omega2)
        class_lnl = bound.class_evaluation(vals, branch_lengths).class_lnl
        if class_lnl.shape[0] != n_classes_expected:
            raise ValueError("BEB requires the 4-class branch-site model A")
        class_lnls.append(class_lnl)

    n_patterns = class_lnls[0].shape[1]
    log_cell_weights = []
    cell_class_post = []  # per cell: (4, n_patterns)

    for k, class_lnl in enumerate(class_lnls):
        for total in grid:
            for split in grid:
                p0, p1 = total * split, total * (1.0 - split)
                rest = 1.0 - total
                q = np.array(
                    [p0, p1, rest * split, rest * (1.0 - split)]
                )
                per_pattern = logsumexp_weighted(class_lnl, q, axis=0)
                log_cell_weights.append(float(weights @ per_pattern))
                cell_class_post.append(class_posteriors(class_lnl, q))

    log_w = np.array(log_cell_weights)
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()

    post = np.zeros((n_classes_expected, n_patterns))
    for cell_weight, cell_post in zip(w, cell_class_post):
        if cell_weight > 0:
            post += cell_weight * cell_post

    per_site = bound.patterns.expand(post, axis=1)
    positive = per_site[_positive_indices(bound, values), :].sum(axis=0)
    return SiteProbabilities(
        probabilities=positive, class_probabilities=per_site, method="BEB"
    )
