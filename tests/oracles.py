"""Reference implementations the production paths are pinned against.

The library evaluates every binding with the level-order driver
(:func:`repro.likelihood.pruning.prune_site_class_batched`), which
promises *exact* float equality with the pruning references kept here;
the expected substitution counts are pinned to theirs to a tolerance:

* :func:`prune_reference` — the per-branch post-order recursion, one
  operator application per branch in branch-table row order;
* :func:`reference_log_likelihood` / :func:`reference_class_matrix` — a
  whole binding evaluated through that recursion with the engine's
  per-branch kernels (``_make_operator`` + ``_propagate``), no stacks,
  no level fusion, no cross-class aliasing, no persistent state;
* :func:`substitution_counts_reference` — expected substitution
  counts by plain pruning and ``expm_frechet`` per branch, class and
  label;
* :func:`prune_levels` — a thin wrapper running the production driver
  on a raw branch table, so kernel-level tests need no engine;
* :func:`finite_difference_gradient` — forward differences, the
  ``gradient`` that optimizer and gradient tests pass to
  :func:`repro.optimize.bfgs.minimize_bfgs` in place of an analytic one;
* :func:`patristic_distance_matrix` — pairwise leaf path lengths, the
  quantity :func:`repro.trees.prune.prune_to_taxa` must preserve.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codon.classify import classification_table
from repro.core.recovery import PruningGuard
from repro.likelihood.mixture import mixture_log_likelihood, site_class_log_likelihoods
from repro.likelihood.pruning import (
    SCALE_THRESHOLD,
    PruningResult,
    PruningState,
    _complete_node,
    build_level_schedule,
    prune_site_class_batched,
)
from repro.models.scaling import build_class_matrices
from repro.optimize.bfgs import BARRIER_SLOPE
from repro.trees.tree import Tree


# ----------------------------------------------------------------------
# Pruning
# ----------------------------------------------------------------------
def prune_reference(
    branch_table: Sequence[Tuple[int, int, float, bool]],
    n_nodes: int,
    leaf_clvs: Sequence[np.ndarray],
    transition_factory,
    propagate,
    scale_threshold: float = SCALE_THRESHOLD,
    guard: Optional[PruningGuard] = None,
) -> PruningResult:
    """One sequential post-order pass for a single site class."""
    guard = guard if guard is not None else PruningGuard()
    if not branch_table:
        raise ValueError("cannot prune an empty branch table")
    n_patterns = leaf_clvs[0].shape[1]
    clvs: List[Optional[np.ndarray]] = [None] * n_nodes
    for i, leaf in enumerate(leaf_clvs):
        clvs[i] = leaf
    pending = np.zeros(n_nodes, dtype=np.intp)
    for _, parent, _, _ in branch_table:
        pending[parent] += 1

    log_scalers = np.zeros(n_patterns)
    root_index = -1
    for child, parent, t, foreground in branch_table:
        child_clv = clvs[child]
        if child_clv is None:
            raise ValueError(f"branch table is not post-ordered: node {child} unset")
        contribution = propagate(transition_factory(t, foreground), child_clv)
        if clvs[parent] is None:
            clvs[parent] = contribution
        else:
            clvs[parent] *= contribution
        pending[parent] -= 1
        if pending[parent] == 0:
            vec = _complete_node(clvs[parent], parent, scale_threshold, guard)
            if vec is not None:
                log_scalers += vec
        root_index = parent
    if pending.max() != 0:
        raise ValueError("branch table did not complete every internal node")
    return PruningResult(root_clv=clvs[root_index], log_scalers=log_scalers)


def prune_levels(
    branch_table: Sequence[Tuple[int, int, float, bool]],
    n_nodes: int,
    leaf_clvs: Sequence[np.ndarray],
    transition_factory,
    propagate,
    scale_threshold: float = SCALE_THRESHOLD,
    guard: Optional[PruningGuard] = None,
    state: Optional[PruningState] = None,
    recompute=None,
) -> PruningResult:
    """The production level-order driver with a per-branch ``propagate``."""
    schedule = build_level_schedule(list(branch_table), n_nodes)
    return prune_site_class_batched(
        list(branch_table), schedule, leaf_clvs, transition_factory,
        lambda items: [propagate(op, clv) for op, clv in items],
        state if state is not None else PruningState.empty(n_nodes),
        guard if guard is not None else PruningGuard(),
        scale_threshold=scale_threshold, recompute=recompute,
    )


def _reference_results(bound, values: Dict[str, float], branch_lengths=None):
    engine = bound.engine
    lengths = (
        np.asarray(branch_lengths, dtype=float)
        if branch_lengths is not None
        else bound.branch_lengths
    )
    graph = bound.model.site_class_graph(values)
    matrices = build_class_matrices(values["kappa"], graph.nodes, bound.pi, engine.code)
    decomps = {omega: engine._decompose(m) for omega, m in matrices.items()}
    operators: Dict[Tuple[float, float], object] = {}

    def factory_for(cls):
        def transition(t, foreground):
            omega = cls.omega_foreground if foreground else cls.omega_background
            op = operators.get((omega, t))
            if op is None:
                op = operators[(omega, t)] = engine._make_operator(decomps[omega], t)
            return op

        return transition

    rows = [(c, p, float(lengths[pos]), fg) for c, p, pos, fg in bound._rows]
    results = []
    for cls in graph.nodes:
        guard = PruningGuard(
            recorder=engine.events,
            context={"site_class": cls.label, "engine": engine.name},
        )
        results.append(prune_reference(
            rows, bound._n_nodes, bound._leaf_clvs, factory_for(cls),
            engine._propagate, guard=guard,
        ))
    return results, graph


def reference_class_matrix(bound, values, branch_lengths=None):
    """``bound.class_evaluation``'s ``(class_lnl, proportions)`` through the
    per-branch recursion."""
    results, graph = _reference_results(bound, values, branch_lengths)
    return site_class_log_likelihoods(results, bound.pi), graph.proportions


def reference_log_likelihood(bound, values, branch_lengths=None) -> float:
    """``bound.log_likelihood`` through the per-branch recursion."""
    results, graph = _reference_results(bound, values, branch_lengths)
    class_lnl = site_class_log_likelihoods(results, bound.pi)
    lnl, _ = mixture_log_likelihood(
        results, bound.pi, graph.proportions, bound.patterns.weights, class_lnl=class_lnl
    )
    return lnl


# ----------------------------------------------------------------------
# Substitution counts
# ----------------------------------------------------------------------
def substitution_counts_reference(bound, values, branch_lengths=None):
    """``bound.substitution_counts`` by brute force.

    Plain per-class pruning with :func:`scipy.linalg.expm` per branch,
    an outside pass, and :func:`scipy.linalg.expm_frechet` per (branch,
    class, label): per pattern, ``E[N_L] = Uᵀ D(t)[Q_L] L / Uᵀ P(t) L``
    weighted by the class posterior.  Returns ``(totals, foreground)``
    shaped like the production pair.
    """
    from scipy.linalg import expm, expm_frechet

    lengths = (
        np.asarray(branch_lengths, dtype=float)
        if branch_lengths is not None
        else bound.branch_lengths
    )
    code = bound.engine.code
    pi = bound.pi
    graph = bound.model.site_class_graph(values)
    matrices = build_class_matrices(values["kappa"], graph.nodes, pi, code)
    table = classification_table(code)
    masks = (table.synonymous, table.single & ~table.synonymous)
    rows = [(c, p, float(lengths[pos]), fg, pos) for c, p, pos, fg in bound._rows]
    n_nodes, n_patterns = bound._n_nodes, bound.n_patterns
    root = bound.tree.root.index
    kids: Dict[int, List[int]] = {}
    for c, p, _, _, _ in rows:
        kids.setdefault(p, []).append(c)
    expms: Dict[Tuple[float, float], np.ndarray] = {}
    frechets: Dict[Tuple[float, float], List[np.ndarray]] = {}

    class_lnl, class_counts = [], []
    for cls, proportion in zip(graph.nodes, graph.proportions):
        if proportion == 0.0:
            class_lnl.append(np.full(n_patterns, -np.inf))
            class_counts.append(np.zeros((len(rows), 2, n_patterns)))
            continue
        inside: List[Optional[np.ndarray]] = [None] * n_nodes
        for leaf, clv in enumerate(bound._leaf_clvs):
            inside[leaf] = np.asarray(clv, dtype=float)
        contribution: Dict[int, np.ndarray] = {}
        probability: Dict[int, np.ndarray] = {}
        log_scale = np.zeros(n_patterns)
        for c, p, t, fg, _ in rows:  # post-order
            omega = cls.omega_foreground if fg else cls.omega_background
            if (omega, t) not in expms:
                expms[(omega, t)] = expm(matrices[omega].q * t)
            probability[c] = expms[(omega, t)]
            contrib = probability[c] @ inside[c]
            scale = contrib.max(axis=0)
            log_scale += np.log(scale)
            contribution[c] = contrib / scale
            inside[p] = contribution[c] if inside[p] is None else inside[p] * contribution[c]
        class_lnl.append(np.log(pi @ inside[root]) + log_scale)

        outside: Dict[int, np.ndarray] = {root: np.repeat(pi[:, None], n_patterns, axis=1)}
        counts = np.zeros((len(rows), 2, n_patterns))
        for c, p, t, fg, pos in reversed(rows):  # pre-order
            u = outside[p].copy()
            for s in kids[p]:
                if s != c:
                    u *= contribution[s]
            o = probability[c].T @ u
            outside[c] = o / o.sum(axis=0)
            omega = cls.omega_foreground if fg else cls.omega_background
            if (omega, t) not in frechets:
                q = matrices[omega].q
                frechets[(omega, t)] = [
                    expm_frechet(q * t, q * mask * t, compute_expm=False) for mask in masks
                ]
            den = np.sum(u * (probability[c] @ inside[c]), axis=0)
            for label, d in enumerate(frechets[(omega, t)]):
                counts[pos, label] = np.sum(u * (d @ inside[c]), axis=0) / den
        class_counts.append(counts)

    with np.errstate(divide="ignore"):
        joint = np.log(graph.proportions)[:, None] + np.array(class_lnl)
    post = np.exp(joint - joint.max(axis=0))
    post /= post.sum(axis=0)
    expected = np.einsum("kp,kblp->blp", post, np.array(class_counts))
    totals = expected @ bound.patterns.weights
    fg_rows = [pos for _, _, _, fg, pos in rows if fg]
    return totals, expected[fg_rows].sum(axis=0)


# ----------------------------------------------------------------------
# Guard exercise
# ----------------------------------------------------------------------
#: Operator scale that trips the row-sum guards without any hard error:
#: drift 1e-6 lies between ``ROW_SUM_TOL`` and ``ROW_SUM_ERROR``.
NUDGE = 1.0 + 1e-6

_SPECTRAL_KERNELS = (
    "stacked_symmetric_operators",
    "stacked_syrk_operators",
    "symmetric_branch_matrix",
    "transition_matrix_einsum",
    "transition_matrix_syrk",
)


def nudge_operators(monkeypatch, factor: float = NUDGE) -> None:
    """Scale every spectral branch operator the engines build by ``factor``.

    Stacked and per-branch kernels are scaled alike, so a stack block
    stays bit-equal to its per-branch operator and the driver/oracle
    comparisons keep their meaning — but every operator now drifts from
    stochasticity, so the guards act on all of them: P(t) rows are
    renormalised (``pt_row_renormalized``) and symmetric operators have
    their drift recorded (``pt_row_drift``).
    """
    import repro.core.engine as engine_mod

    for name in _SPECTRAL_KERNELS:
        real = getattr(engine_mod, name)
        monkeypatch.setattr(
            engine_mod, name, lambda *args, _real=real, **kwargs: _real(*args, **kwargs) * factor
        )


# ----------------------------------------------------------------------
# Optimizer
# ----------------------------------------------------------------------
def finite_difference_gradient(
    fun: Callable[[np.ndarray], float],
    x: np.ndarray,
    f0: float,
    relative_step: float = 1e-6,
) -> np.ndarray:
    """Forward-difference gradient with per-coordinate relative steps."""
    n = x.shape[0]
    grad = np.empty(n)
    for i in range(n):
        h = relative_step * (abs(x[i]) + 1.0)
        probe = x.copy()
        probe[i] += h
        fi = fun(probe)
        slope = (fi - f0) / h
        if not np.isfinite(slope):
            # Probe hit an infinite barrier (parameter wall): represent
            # it as a steep finite uphill slope so the direction update
            # stays well-defined.
            slope = BARRIER_SLOPE
        grad[i] = slope
    return grad


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------
def patristic_distance_matrix(tree: Tree) -> np.ndarray:
    """Pairwise leaf path-length matrix ordered like ``tree.leaves``.

    Computed in one post-order pass: when a node joins subtrees, every
    cross-subtree leaf pair's path goes through it, with distances
    ``depth_a + depth_b`` relative to the node.
    """
    n = tree.n_leaves
    dist = np.zeros((n, n))
    # For each node: map leaf index -> distance from that leaf up to node.
    below: Dict[int, Dict[int, float]] = {}
    for node in tree.postorder():
        if node.is_leaf:
            below[node.index] = {node.index: 0.0}
            continue
        merged: Dict[int, float] = {}
        child_maps = []
        for child in node.children:
            child_map = {
                leaf: d + child.length for leaf, d in below.pop(child.index).items()
            }
            child_maps.append(child_map)
        for i, map_a in enumerate(child_maps):
            for map_b in child_maps[i + 1 :]:
                for leaf_a, da in map_a.items():
                    for leaf_b, db in map_b.items():
                        dist[leaf_a, leaf_b] = dist[leaf_b, leaf_a] = da + db
            merged.update(map_a)
        below[node.index] = merged
    return dist
