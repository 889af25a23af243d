"""BS-REL: the N-class generalisation of the branch-site model A.

HyPhy's BranchSiteREL / BranchSiteRELMultiModel family (SNIPPETS.md)
fits a user-chosen number of ω rate classes per branch instead of model
A's fixed four.  This module reproduces that family on our mixture
stack: ``K`` *base* classes — ω₁..ω_{K−1} free in (0, 1) plus a neutral
ω_K = 1 — crossed with a *selected* variant of each that keeps the
background ω but applies a common foreground ω_fg ≥ 1, giving ``2K``
site classes::

    class   proportion           background   foreground
    b1      p1                   ω1           ω1
    ...
    bK      pK                   1            1
    s1      p_sel·p1/Σp          ω1           ω_fg
    ...
    sK      p_sel·pK/Σp          1            ω_fg

with ``p_sel = 1 − Σ pk`` split across the selected variants in
proportion to the base weights — exactly model A's 2a/2b construction.
``K = 2`` *is* model A up to labels (b1=0, b2=1, s1=2a, s2=2b), which
is the bit-identity hook ``tests/test_bsrel.py`` pins.

The H0/H1 pair mirrors model A: H1 estimates ω_fg ≥ 1, H0 fixes
ω_fg = 1 (one degree of freedom).  Affordability at larger K comes from
the site-class graph: its plan derives every selected class from its
base class (same background decomposition), so of 2K pruning passes K
alias existing CLVs and the batched operator ledger dedupes their
background builds.

Start values follow HyPhy's ``_useGridSearch``: besides the seeded
default ladder, :meth:`BSRELModel.grid_start` scores a coarse grid of
ω placements against a bound problem and starts from the best cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import CodonSiteModel, SiteClass
from repro.models.parameters import (
    IntervalTransform,
    PositiveTransform,
    stick_break_pack,
    stick_break_unpack,
)
from repro.utils.rng import RngLike, make_rng

__all__ = ["BSRELModel"]

_KAPPA = PositiveTransform(lower=0.0)
_OMEGA_BG = IntervalTransform(0.0, 1.0)
_OMEGA_FG = PositiveTransform(lower=1.0)


class BSRELModel(CodonSiteModel):
    """BS-REL with ``K`` base ω classes (``2K`` site classes), either hypothesis.

    Parameters
    ----------
    n_base_classes:
        ``K ≥ 2``.  Free background ω's are ``omega1..omega{K-1}``; the
        K-th base class is neutral (ω = 1).
    fix_omega_fg:
        ``True`` builds the null H0 (``ω_fg = 1`` fixed), ``False`` the
        alternative H1 (``ω_fg ≥ 1`` estimated).
    """

    requires_foreground = True

    def __init__(self, n_base_classes: int = 3, fix_omega_fg: bool = False) -> None:
        if int(n_base_classes) < 2:
            raise ValueError(f"BS-REL needs at least 2 base classes, got {n_base_classes}")
        self.n_base_classes = int(n_base_classes)
        self.fix_omega_fg = bool(fix_omega_fg)
        k = self.n_base_classes
        self._omega_names = tuple(f"omega{i}" for i in range(1, k))
        self._weight_names = tuple(f"p{i}" for i in range(1, k + 1))
        names = ("kappa",) + self._omega_names
        if not self.fix_omega_fg:
            names += ("omega_fg",)
        self.param_names: Tuple[str, ...] = names + self._weight_names
        hyp = "H0, omega_fg=1" if self.fix_omega_fg else "H1"
        self.name = f"BS-REL {2 * k}-class ({hyp})"

    @property
    def hypothesis(self) -> str:
        return "H0" if self.fix_omega_fg else "H1"

    # ------------------------------------------------------------------
    def pack(self, values: Dict[str, float]) -> np.ndarray:
        values = self.validate(values)
        packed = [_KAPPA.to_unconstrained(values["kappa"])]
        packed += [_OMEGA_BG.to_unconstrained(values[n]) for n in self._omega_names]
        if not self.fix_omega_fg:
            packed.append(_OMEGA_FG.to_unconstrained(values["omega_fg"]))
        packed += stick_break_pack([values[n] for n in self._weight_names])
        return np.array(packed)

    def unpack(self, x: Sequence[float]) -> Dict[str, float]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_params,):
            raise ValueError(f"{self.name}: expected {self.n_params} values, got shape {x.shape}")
        k = self.n_base_classes
        pos = 0
        values = {"kappa": _KAPPA.to_constrained(x[pos])}
        pos += 1
        for name in self._omega_names:
            values[name] = _OMEGA_BG.to_constrained(x[pos])
            pos += 1
        if not self.fix_omega_fg:
            values["omega_fg"] = _OMEGA_FG.to_constrained(x[pos])
            pos += 1
        weights = stick_break_unpack(x[pos : pos + k])
        for name, w in zip(self._weight_names, weights):
            values[name] = w
        return values

    # ------------------------------------------------------------------
    def _base_omegas(self, values: Dict[str, float]) -> List[float]:
        return [values[n] for n in self._omega_names] + [1.0]

    def site_classes(self, values: Dict[str, float]) -> List[SiteClass]:
        values = self.validate(values)
        omegas = self._base_omegas(values)
        omega_fg = 1.0 if self.fix_omega_fg else values["omega_fg"]
        weights = [values[n] for n in self._weight_names]
        total = sum(weights)
        if not 0.0 < total < 1.0:
            raise ValueError(f"base-class weights sum to {total}, must lie in (0, 1)")
        p_sel = 1.0 - total
        classes = [
            SiteClass(f"b{i + 1}", w, om, om)
            for i, (w, om) in enumerate(zip(weights, omegas))
        ]
        classes += [
            SiteClass(f"s{i + 1}", p_sel * w / total, om, omega_fg, positive=True)
            for i, (w, om) in enumerate(zip(weights, omegas))
        ]
        return classes

    # ------------------------------------------------------------------
    def default_start(self, rng: RngLike = None) -> Dict[str, float]:
        """Evenly-laddered start: ω_i = i/K, total base mass 0.85.

        With a generator supplied, values get the same ~10 % seeded
        multiplicative jitter as model A.
        """
        k = self.n_base_classes
        start: Dict[str, float] = {"kappa": 2.0}
        for i, name in enumerate(self._omega_names, start=1):
            start[name] = i / k
        if not self.fix_omega_fg:
            start["omega_fg"] = 2.0
        for name in self._weight_names:
            start[name] = 0.85 / k
        if rng is not None:
            gen = make_rng(rng)
            jitter = lambda v: float(v * np.exp(gen.uniform(-0.1, 0.1)))  # noqa: E731
            start["kappa"] = jitter(start["kappa"])
            for name in self._omega_names:
                start[name] = min(0.95, jitter(start[name]))
            if not self.fix_omega_fg:
                start["omega_fg"] = max(1.05, jitter(start["omega_fg"]))
            ws = [jitter(start[name]) for name in self._weight_names]
            scale = min(0.95 / sum(ws), 1.0)
            for name, w in zip(self._weight_names, ws):
                start[name] = w * scale
        return start

    def grid_start(
        self,
        bound,
        base_start: Optional[Dict[str, float]] = None,
        branch_lengths: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """ω-grid initialisation (HyPhy's ``_useGridSearch`` analogue).

        Scores a coarse deterministic grid — background ω ladders spaced
        over three (low, high) windows crossed with foreground ω
        candidates under H1 — by one likelihood evaluation each at the
        bound problem's current branch lengths, and returns the best
        cell merged over ``base_start`` (weights/kappa are taken from
        there, or the unjittered default).  Deterministic: no RNG, so
        competing engines given the same problem start identically.
        """
        start = dict(base_start) if base_start is not None else self.default_start(None)
        k = self.n_base_classes
        ladders = []
        for lo, hi in ((0.05, 0.5), (0.2, 0.8), (0.4, 0.95)):
            if k == 2:
                ladders.append([lo])
            else:
                ladders.append(list(np.linspace(lo, hi, k - 1)))
        fg_candidates = [None] if self.fix_omega_fg else [1.5, 3.0, 6.0]
        best: Optional[Dict[str, float]] = None
        best_lnl = -np.inf
        for ladder in ladders:
            for fg in fg_candidates:
                cand = dict(start)
                for name, om in zip(self._omega_names, ladder):
                    cand[name] = float(om)
                if fg is not None:
                    cand["omega_fg"] = fg
                try:
                    lnl = bound.log_likelihood(cand, branch_lengths)
                except (ValueError, FloatingPointError):
                    continue
                if lnl > best_lnl:
                    best_lnl, best = lnl, cand
        return best if best is not None else start

    # ------------------------------------------------------------------
    def null_model(self) -> "BSRELModel":
        """The matching H0 for an H1 instance (idempotent)."""
        return BSRELModel(self.n_base_classes, fix_omega_fg=True)

    def to_null_values(self, values: Dict[str, float]) -> Dict[str, float]:
        """Project H1 parameter values onto the H0 parameter set."""
        values = self.validate(values)
        return {k: values[k] for k in values if k != "omega_fg"}
