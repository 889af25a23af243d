"""Marginal ancestral sequence reconstruction (CodeML's ``RateAncestor``).

After fitting, CodeML can reconstruct the most probable codon at every
internal node — used to localise *where* on the foreground branch the
selected substitutions happened.  Marginal reconstruction needs, besides
the standard *inside* conditional vectors ``L_v`` (pruning, Fig. 2), an
*outside* vector ``O_v`` per node: the probability of the state at ``v``
together with all data outside ``v``'s subtree.  The branch gradient's
pre-order pass forms exactly these (DESIGN.md §9):

    O_root = π
    U_c    = O_p ∘ ∏_{siblings s} P(t_s)·L_s
    O_c(x) = Σ_y P(t_c)[y, x] · U_c(y)          (O_c = P(t_c)ᵀ U_c)

π enters at the root only, so within one site class the posterior is
``P(state_v = x | class, data) ∝ L_v(x) · O_v(x)`` — per-column
normalisation cancels every rescaling constant.  Classes are then mixed
with their exact *posterior* weights ``P(class | data)`` (from
:func:`repro.likelihood.mixture.class_posteriors`), which keeps the
cross-class magnitudes correct without tracking scale factors.

Everything is read from the binding's all-class evaluation
(:meth:`~repro.core.engine.BoundLikelihood.class_evaluation`): the
inside states, the forward operators the outside pass applies, and the
class log-likelihoods — the kernels and recovery guards of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.likelihood.mixture import class_posteriors

__all__ = ["AncestralReconstruction", "marginal_reconstruction"]


@dataclass
class AncestralReconstruction:
    """Per-internal-node marginal state posteriors.

    Attributes
    ----------
    node_indices:
        Tree node indices covered (internal nodes, root included).
    best_states:
        ``{node_index: (n_sites,) int array}`` — most probable codon
        state per site.
    best_probabilities:
        ``{node_index: (n_sites,) float array}`` — posterior of that
        state.
    code:
        Genetic code, for decoding states to codon strings.
    """

    node_indices: List[int]
    best_states: Dict[int, np.ndarray]
    best_probabilities: Dict[int, np.ndarray]
    code: object

    def codon_sequence(self, node_index: int) -> str:
        """Most probable ancestral codon sequence at one node."""
        sense = self.code.sense_codons
        return "".join(sense[s] for s in self.best_states[node_index])

    def mean_confidence(self, node_index: int) -> float:
        """Average posterior of the reconstructed states at one node."""
        return float(self.best_probabilities[node_index].mean())


def _normalise_columns(matrix: np.ndarray) -> np.ndarray:
    """Each pattern column divided by its sum (all-zero columns kept)."""
    totals = matrix.sum(axis=0)
    return matrix / np.where(totals > 0, totals, 1.0)[None, :]


def marginal_reconstruction(
    bound,
    values: Dict[str, float],
    branch_lengths: Optional[Sequence[float]] = None,
) -> AncestralReconstruction:
    """Marginal ancestral reconstruction for a bound problem at ``values``.

    Parameters
    ----------
    bound:
        A :class:`repro.core.engine.BoundLikelihood` (any engine).
    values:
        Model parameter values (typically the MLEs).
    branch_lengths:
        Branch lengths (defaults to the bound problem's current vector).

    Returns
    -------
    AncestralReconstruction
        Posteriors expanded back to per-site resolution.
    """
    patterns = bound.patterns
    ev = bound.class_evaluation(values, branch_lengths)
    class_post = class_posteriors(ev.class_lnl, ev.proportions)
    internal = [n.index for n in bound.tree.nodes if not n.is_leaf]
    joint = {v: np.zeros((bound.pi.shape[0], patterns.n_patterns)) for v in internal}

    # Per-class node posteriors, keyed by the class whose states and
    # operators produced them: a full share (identical ω on every
    # branch, every CLV aliased) reuses its base's.
    per_class: Dict[int, Dict[int, np.ndarray]] = {}
    for plan in ev.plans:
        index = plan.index
        if ev.graph.nodes[index].proportion == 0.0:
            continue
        source = plan.base if plan.mode == "derive" and plan.full_share else index
        if source not in per_class:
            clvs = ev.states[source].clvs
            outside = bound.outside_vectors(ev, source)
            per_class[source] = {
                v: _normalise_columns(clvs[v] * outside[v]) for v in internal
            }
        for v in internal:
            joint[v] += class_post[index][None, :] * per_class[source][v]

    best_states: Dict[int, np.ndarray] = {}
    best_probs: Dict[int, np.ndarray] = {}
    columns = np.arange(patterns.n_patterns)
    for v, matrix in joint.items():
        posterior = _normalise_columns(matrix)
        states = posterior.argmax(axis=0)
        best_states[v] = patterns.expand(states)
        best_probs[v] = patterns.expand(posterior[states, columns])

    return AncestralReconstruction(
        node_indices=sorted(joint),
        best_states=best_states,
        best_probabilities=best_probs,
        code=bound.engine.code,
    )
