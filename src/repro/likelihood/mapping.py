"""Exact expected substitution counts (``--map``).

The branch-site test reports *that* positive selection acted on the
foreground branch; substitution mapping reports how many synonymous
and non-synonymous substitutions that conclusion rests on.  ``--map``
reports posterior *means* — per-branch totals and the foreground
per-site table — and a mean has a closed form (Minin & Suchard 2008,
"Counting labeled transitions in continuous-time Markov models of
evolution", J. Math. Biol. 56).  For a set L of labelled transitions
on branch b, per pattern,

    E[N_L | data] = uᵀ·D(t)[Q_L]·l / uᵀ·P(t)·l

with ``u`` and ``l`` the outside and inside vectors of the branch and
``D(t)[Q_L]`` the derivative of ``P(t) = exp(Qt)`` in the direction of
Q's labelled off-diagonal part.  That is the contraction the gradient
already forms for a rate parameter, taken per branch instead of summed
over branches; :meth:`repro.core.engine.BoundLikelihood.substitution_counts`
computes it on the gradient's outside pass (DESIGN.md §14).  Each site
class is weighted by its posterior at the pattern.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["SubstitutionMapping", "substitution_mapping"]


@dataclass
class SubstitutionMapping:
    """Posterior expected substitution counts.

    Attributes
    ----------
    branch_labels:
        One label per non-root node (the node the branch leads *to*),
        in the engine's branch-vector order.
    foreground:
        Per-branch foreground flags, same order.
    branch_lengths:
        The branch lengths the counts were computed under.
    syn / nonsyn:
        ``(n_branches,)`` expected synonymous and non-synonymous
        substitution counts per branch, summed over sites.
    fg_syn / fg_nonsyn:
        ``(n_sites,)`` expected counts per site, summed over the
        foreground branch(es).
    seconds:
        Wall clock of the computation, for the batch metrics.
    """

    branch_labels: List[str]
    foreground: List[bool]
    branch_lengths: np.ndarray
    syn: np.ndarray
    nonsyn: np.ndarray
    fg_syn: np.ndarray
    fg_nonsyn: np.ndarray
    seconds: float = 0.0

    @property
    def n_branches(self) -> int:
        return self.syn.shape[0]

    @property
    def n_sites(self) -> int:
        return self.fg_syn.shape[0]

    def branch_totals(self) -> List[Dict[str, object]]:
        """Per-branch event table: totals over sites plus the N/S ratio."""
        rows = []
        for b, label in enumerate(self.branch_labels):
            s = float(self.syn[b])
            n = float(self.nonsyn[b])
            rows.append(
                {
                    "branch": label,
                    "foreground": bool(self.foreground[b]),
                    "length": float(self.branch_lengths[b]),
                    "syn": s,
                    "nonsyn": n,
                    # Event-count analogue of dN/dS; None when no
                    # synonymous event is expected (ratio undefined).
                    "ratio": (n / s) if s > 0.0 else None,
                }
            )
        return rows

    def to_payload(self) -> Dict[str, object]:
        """Compact journal payload (the ``mapping`` field, v11 layout).

        Per-branch totals, the foreground per-site table (what the
        report renders next to BEB), ``seconds`` and ``method``
        (``"exact"``).  Journals before v11 carried a sampler's payload
        (``n_samples``, ``mapping_ci``, ``method: "batched"``); the
        report still renders their means.
        """
        return {
            "branches": self.branch_totals(),
            "foreground_sites": {
                "syn": [round(float(x), 6) for x in self.fg_syn],
                "nonsyn": [round(float(x), 6) for x in self.fg_nonsyn],
            },
            "seconds": round(float(self.seconds), 6),
            "method": "exact",
        }


def substitution_mapping(
    bound,
    values: Dict[str, float],
    branch_lengths: Optional[Sequence[float]] = None,
) -> SubstitutionMapping:
    """Exact posterior expected substitution counts of a bound problem.

    Parameters
    ----------
    bound:
        A :class:`repro.core.engine.BoundLikelihood`.
    values:
        Model parameter values (typically the H1 MLEs).
    branch_lengths:
        Defaults to the bound problem's current vector.
    """
    start = time.perf_counter()
    lengths = (
        np.asarray(branch_lengths, dtype=float)
        if branch_lengths is not None
        else bound.branch_lengths
    )
    totals, foreground = bound.substitution_counts(values, lengths)
    patterns = bound.patterns
    non_root = [n for n in bound.tree.nodes if not n.is_root]
    return SubstitutionMapping(
        branch_labels=[n.name if n.name else f"node#{n.index}" for n in non_root],
        foreground=[bool(n.foreground) for n in non_root],
        branch_lengths=np.array(lengths, dtype=float),
        syn=totals[:, 0],
        nonsyn=totals[:, 1],
        fg_syn=patterns.expand(foreground[0]),
        fg_nonsyn=patterns.expand(foreground[1]),
        seconds=time.perf_counter() - start,
    )
