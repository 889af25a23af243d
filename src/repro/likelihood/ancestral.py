"""Marginal ancestral sequence reconstruction (CodeML's ``RateAncestor``).

After fitting, CodeML can reconstruct the most probable codon at every
internal node — used to localise *where* on the foreground branch the
selected substitutions happened.  Marginal reconstruction needs, besides
the standard *inside* conditional vectors (pruning, Fig. 2), an
*outside* pass computing for each node ``v`` the probability of all data
outside ``v``'s subtree given ``v``'s state:

    U_root(y) = 1
    U_c(x)    = Σ_y P(t_c)[y, x] · U_p(y) · Π_{siblings s} (P(t_s) · L_s)(y)

Within one site class the posterior is
``P(state_v = x | class, data) ∝ π_x · L_v(x) · U_v(x)`` — per-column
normalisation cancels all rescaling constants, so underflow protection
is a simple per-node column max rescale.  Classes are then mixed with
their exact *posterior* weights ``P(class | data)`` (from
:func:`repro.likelihood.mixture.class_posteriors`), which keeps the
cross-class magnitudes correct without tracking scale factors.

Transition matrices come from the bound engine's operator layer
(:meth:`LikelihoodEngine._operator_for`), so they are built with the
same kernels (and recovery guards) as the fit's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.scaling import build_class_matrices

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


def _rescale_columns(matrix: np.ndarray) -> None:
    """In-place per-column max normalisation (posteriors are ratios)."""
    col_max = matrix.max(axis=0)
    safe = np.where(col_max > 0, col_max, 1.0)
    matrix /= safe[None, :]


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
    tree = bound.tree
    patterns = bound.patterns
    pi = bound.pi
    lengths = (
        np.asarray(branch_lengths, dtype=float)
        if branch_lengths is not None
        else bound.branch_lengths
    )
    model = bound.model
    engine = bound.engine
    # The validated class graph, not a raw class list: reconstruction
    # must mix exactly the classes (weights, labels, order) the fit used.
    graph = model.site_class_graph(values)
    classes = graph.nodes
    matrices = build_class_matrices(values["kappa"], classes, pi, engine.code)
    decomps = {omega: engine._decompose(matrix) for omega, matrix in matrices.items()}

    non_root = [n for n in tree.nodes if not n.is_root]
    pos_of = {n.index: k for k, n in enumerate(non_root)}
    n_nodes = len(tree.nodes)
    n_patterns = patterns.n_patterns
    n_states = pi.shape[0]
    leaf_clvs = bound._leaf_clvs  # shared read-only leaf indicators

    # Exact per-site class posteriors weight the per-class state
    # posteriors (see module docstring).
    class_lnl, proportions = bound.site_class_matrix(values, lengths)
    from repro.likelihood.mixture import class_posteriors

    class_post = class_posteriors(class_lnl, proportions)

    # Dense P(t) per (ω, t) from the engine's operator layer, built once
    # per distinct pair.
    p_memo: Dict[tuple, np.ndarray] = {}

    def p_matrix(omega: float, t: float) -> np.ndarray:
        key = (omega, t)
        if key not in p_memo:
            op = engine._operator_for(decomps[omega], t)
            p_memo[key] = engine._operator_probability_matrix(op)
        return p_memo[key]

    internal_nodes = [n for n in tree.nodes if not n.is_leaf]
    joint = {n.index: np.zeros((n_states, n_patterns)) for n in internal_nodes}

    for class_idx, cls in enumerate(classes):
        if cls.proportion == 0.0:
            continue

        def branch_p(node) -> np.ndarray:
            omega = cls.omega_foreground if node.foreground else cls.omega_background
            return p_matrix(omega, float(lengths[pos_of[node.index]]))

        # Inside pass: L_v for every node (leaves are the indicators).
        inside: List[Optional[np.ndarray]] = [None] * n_nodes
        for i, clv in enumerate(leaf_clvs):
            inside[i] = clv
        # Cache each branch's propagated contribution (P_c @ L_c); the
        # outside pass reuses them for sibling products.
        propagated: Dict[int, np.ndarray] = {}
        for node in tree.postorder():
            if node.is_leaf:
                continue
            acc = np.ones((n_states, n_patterns))
            for child in node.children:
                contrib = branch_p(child) @ inside[child.index]
                propagated[child.index] = contrib
                acc *= contrib
            _rescale_columns(acc)
            inside[node.index] = acc

        # Outside pass: U_v, pre-order.
        outside: List[Optional[np.ndarray]] = [None] * n_nodes
        outside[tree.root.index] = np.ones((n_states, n_patterns))
        for node in tree.preorder():
            up = outside[node.index]
            for child in node.children:
                acc = up.copy()
                for sibling in node.children:
                    if sibling is not child:
                        acc *= propagated[sibling.index]
                down = branch_p(child).T @ acc
                _rescale_columns(down)
                outside[child.index] = down

        for node in internal_nodes:
            raw = pi[:, None] * inside[node.index] * outside[node.index]
            totals = raw.sum(axis=0)
            safe = np.where(totals > 0, totals, 1.0)
            # Posterior given this class, weighted by P(class | data).
            joint[node.index] += class_post[class_idx][None, :] * (raw / safe[None, :])

    best_states: Dict[int, np.ndarray] = {}
    best_probs: Dict[int, np.ndarray] = {}
    for node_index, matrix in joint.items():
        totals = matrix.sum(axis=0)
        safe = np.where(totals > 0, totals, 1.0)
        posterior = matrix / safe[None, :]
        states = posterior.argmax(axis=0)
        probs = posterior[states, np.arange(n_patterns)]
        best_states[node_index] = patterns.expand(states)
        best_probs[node_index] = patterns.expand(probs)

    return AncestralReconstruction(
        node_indices=sorted(joint),
        best_states=best_states,
        best_probabilities=best_probs,
        code=bound.engine.code,
    )
