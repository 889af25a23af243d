"""Reference implementations the production paths are pinned against.

The library evaluates every binding with the level-order driver
(:func:`repro.likelihood.pruning.prune_site_class_batched`) and draws
mapping histories with the vectorised sampler.  Both promise *exact*
float equality with simpler code kept here:

* :func:`prune_reference` — the per-branch post-order recursion, one
  operator application per branch in branch-table row order;
* :func:`reference_log_likelihood` / :func:`reference_class_matrix` — a
  whole binding evaluated through that recursion with the engine's
  per-branch kernels (``_operator_for`` + ``_propagate``), no stacks,
  no level fusion, no cross-class aliasing, no persistent state;
* :func:`sample_histories_serial` — the per-sample / per-node /
  per-column mapping sampler over the canonical uniform stream;
* :func:`prune_levels` — a thin wrapper running the production driver
  on a raw branch table, so kernel-level tests need no engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.likelihood.mapping as mapping_mod
from repro.core.recovery import PruningGuard
from repro.likelihood.mapping import _draw_uniforms, _inter_offsets, _pick_cols, _pick_jumps
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
    dirty=None,
    on_reuse=None,
) -> PruningResult:
    """The production level-order driver with a per-branch ``propagate``."""
    schedule = build_level_schedule(list(branch_table), n_nodes)
    return prune_site_class_batched(
        list(branch_table), schedule, leaf_clvs, transition_factory,
        lambda items: [propagate(op, clv) for op, clv in items],
        state if state is not None else PruningState.empty(n_nodes),
        guard if guard is not None else PruningGuard(),
        scale_threshold=scale_threshold, dirty=dirty, on_reuse=on_reuse,
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
                op = operators[(omega, t)] = engine._operator_for(decomps[omega], t)
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
# Stochastic mapping
# ----------------------------------------------------------------------
def sample_histories_serial(plan, rng: np.random.Generator):
    """Per-sample / per-node / per-column loops over the canonical variates.

    Same return contract as ``repro.likelihood.mapping._sample_histories``:
    per-history count tensors ``(n_branches, m_total)`` whose flat column
    ``j = sample · n_patterns + pattern``.
    """
    n_branches = len(plan.visits)
    n_patterns = plan.n_patterns
    m_total = plan.m_total
    u_class, u_node, u_jump = _draw_uniforms(plan, rng)

    cls_idx = np.empty((plan.n_samples, n_patterns), dtype=np.intp)
    for s in range(plan.n_samples):
        # _pick_cols consumes its weights; keep the plan's posterior intact.
        cls_idx[s] = _pick_cols(plan.class_post.copy(), u_class[s])

    node_states: Dict[int, np.ndarray] = {}
    jumps_all = np.zeros((n_branches, m_total), dtype=np.intp)
    a_all = np.empty((n_branches, m_total), dtype=np.intp)
    b_all = np.empty((n_branches, m_total), dtype=np.intp)
    cls_of_col = np.empty(m_total, dtype=np.intp)

    # Stages 2–3, per sample then per class.
    for s in range(plan.n_samples):
        base = s * n_patterns
        for ci, cls in enumerate(plan.classes):
            cols = np.flatnonzero(cls_idx[s] == ci)
            if cols.size == 0:
                continue
            j = base + cols
            cls_of_col[j] = ci
            inside = plan.inside[ci]
            root_w = plan.pi[:, None] * inside[plan.root_index][:, cols]
            node_states[plan.root_index] = _pick_cols(root_w, u_node[0, j])
            for k, child, parent, t, fg in plan.visits:
                parent_states = node_states[parent]
                omega = plan.omega_of(cls, fg)
                p = plan.p_matrix(omega, t)
                w = p[parent_states, :].T * inside[child][:, cols]
                child_states = _pick_cols(w, u_node[1 + k, j])
                node_states[child] = child_states
                a_all[k, j] = parent_states
                b_all[k, j] = child_states
                uni = plan.unis[omega]
                if uni.mu * t == 0.0:
                    continue
                weights = plan.weights_for(omega, t)
                k_max = weights.shape[0] - 1
                uni.power(k_max)  # extend the shared power cache once
                contrib = np.empty((k_max + 1, cols.size))
                for n in range(k_max + 1):
                    contrib[n] = weights[n] * uni.power(n)[parent_states, child_states]
                jumps_all[k, j] = _pick_jumps(contrib, u_jump[k, j])
                uni.note_draws(cols.size)

    offsets, total_inter = _inter_offsets(jumps_all)
    u_inter = rng.random(total_inter)

    syn_c = np.zeros((n_branches, m_total))
    nonsyn_c = np.zeros((n_branches, m_total))
    syn_mask = plan.syn_mask
    # Stage 4, per column: the scalar jump-chain walk.
    for k, child, parent, t, fg in plan.visits:
        jumps_k = jumps_all[k]
        for j in np.nonzero(jumps_k > 0)[0]:
            n_j = int(jumps_k[j])
            omega = plan.omega_of(plan.classes[cls_of_col[j]], fg)
            uni = plan.unis[omega]
            r = uni.r
            state = int(a_all[k, j])
            target = int(b_all[k, j])
            off = int(offsets[k, j])
            for step in range(1, n_j):
                w = r[state, :] * uni.power(n_j - step)[:, target]
                cw = np.cumsum(w)
                tot = cw[-1]
                safe = tot if tot > 0.0 else 1.0
                nxt = int((cw < u_inter[off + step - 1] * safe).sum())
                nxt = min(nxt, w.shape[0] - 1)
                if nxt != state:
                    if syn_mask[state, nxt]:
                        syn_c[k, j] += 1.0
                    else:
                        nonsyn_c[k, j] += 1.0
                state = nxt
            # The final jump lands on the conditioned endpoint by
            # construction; only a real change counts.
            if state != target:
                if syn_mask[state, target]:
                    syn_c[k, j] += 1.0
                else:
                    nonsyn_c[k, j] += 1.0
    return syn_c, nonsyn_c


@contextmanager
def serial_sampler():
    """Route ``sample_substitution_mapping`` through the serial oracle."""
    production = mapping_mod._sample_histories
    mapping_mod._sample_histories = sample_histories_serial
    try:
        yield
    finally:
        mapping_mod._sample_histories = production


def sample_mapping_serial(bound, values, **kwargs):
    """``sample_substitution_mapping`` drawn by :func:`sample_histories_serial`."""
    with serial_sampler():
        return mapping_mod.sample_substitution_mapping(bound, values, **kwargs)


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
