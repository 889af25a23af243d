"""Stochastic substitution mapping via uniformization (``scan --map``).

The branch-site test reports *that* positive selection acted on the
foreground branch; stochastic mapping reports *how much substitution*
that conclusion rests on.  Following Nielsen (2002) and the
uniformization sampler of Irvahn & Minin (arXiv:1403.5040), we draw
substitution histories from the posterior ``P(history | data, MLEs)``
and summarise them as expected synonymous / non-synonymous counts per
branch per site, with normal-approximation confidence intervals from
the sample spread.

One sample proceeds in four conditioned stages, each exact:

1. **Site class** per alignment pattern, from the NEB posteriors
   ``P(class | data)`` (:func:`repro.likelihood.mixture.class_posteriors`).
2. **Node states**, jointly, top-down: the root from
   ``π · L_root``, then each child from ``P(t)[parent, ·] · L_child``
   — the inside vectors ``L`` make this the exact joint conditional,
   and leaves with ambiguity resolve themselves because their inside
   vector *is* the ambiguity indicator.
3. **Jump count** ``N`` on each branch, endpoint-conditioned:
   ``P(N = n | a, b, t) ∝ w_n(μt) · R^n[a, b]`` with the Poisson
   weights ``w_n`` and jump matrix ``R`` of the branch generator's
   :class:`~repro.core.uniformization.UniformizedOperator` (whose
   cached powers ``R^n`` are shared with recovery rung 4).
4. **Intermediate states** of the jump chain, left to right:
   ``P(s_k = x | s_{k-1}, b) ∝ R[s_{k-1}, x] · R^{N-k}[x, b]``.

Self-jumps of ``R`` are *virtual* (uniformization's bookkeeping) and
are discarded; real changes are classified synonymous vs
non-synonymous with the genetic code's pair table — single-nucleotide
by construction, since ``R`` inherits ``Q``'s sparsity.

Batched layout (DESIGN.md §14)
------------------------------

The per-class **inside CLVs** come from one level-order batched pass
(:meth:`~repro.core.engine.BoundLikelihood.class_evaluation`): the same
stacked-operator machinery and class-graph sharing plan the evaluator
uses, instead of a private per-child Python re-prune; the dense
``P(t)`` of stage 2 come from that pass's operator sets.  The draws
themselves are array-wide: every stage pre-draws its uniform variates
in a **canonical order**, then resolves them with vectorised
categorical picks (columns are ``sample × pattern`` pairs), batched
``R^k`` gathers from the shared power stacks, and an intermediate-state
sampler that processes all columns of a branch with the same jump
count in one gather.  The serial reference sampler kept as the test
oracle (``tests/oracles.py``) consumes the *same* pre-drawn variates
with per-sample, per-node, per-column loops, so the two are
bit-identical by construction: every per-column float operation is the
same regardless of how columns are grouped.

Canonical uniform-variate order for seed ``s``:

1. ``u_class``  — ``(n_samples, n_patterns)``
2. ``u_node``   — ``(1 + n_branches, n_samples·n_patterns)``; row 0 is
   the root, row ``1+k`` the ``k``-th child visit in preorder order
3. ``u_jump``   — ``(n_branches, n_samples·n_patterns)``, same row order
4. ``u_inter``  — one flat draw sized by the realised jump counts;
   column ``(k, j)``'s walk reads ``max(N−1, 0)`` consecutive variates
   at the exclusive-cumsum offset of the C-ordered count array

Averaging over ``n_samples`` histories gives Monte Carlo estimates of
``E[N_syn]``, ``E[N_nonsyn]`` per (branch, site); their sample
variances give the CIs next to the BEB table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codon.classify import classification_table
from repro.likelihood.mixture import class_posteriors

__all__ = ["SubstitutionMapping", "sample_substitution_mapping"]

#: Two-sided 95% normal quantile for the CI half-widths.
Z_95 = 1.959963984540054


@dataclass
class SubstitutionMapping:
    """Posterior expected substitution counts per branch per site.

    Attributes
    ----------
    branch_labels:
        One label per non-root node (the node the branch leads *to*),
        in the engine's branch-vector order.
    foreground:
        Per-branch foreground flags, same order.
    branch_lengths:
        The branch lengths the histories were sampled under.
    syn / nonsyn:
        ``(n_branches, n_sites)`` expected synonymous and
        non-synonymous substitution counts (posterior means over the
        sampled histories).
    n_samples:
        Histories averaged per site.
    syn_var / nonsyn_var:
        ``(n_branches, n_sites)`` sample variances (ddof=1) of the
        per-history counts; ``None`` when uncertainty was not tracked
        (hand-built instances) and all-zero when ``n_samples == 1``.
    syn_total_var / nonsyn_total_var:
        ``(n_branches,)`` sample variances of the per-history
        *branch-total* counts (site-weighted sums per draw) — computed
        from the per-draw totals, not by summing per-site variances,
        because pattern expansion correlates sites.
    fg_syn_site_var / fg_nonsyn_site_var:
        ``(n_sites,)`` sample variances of the per-history counts
        summed over the foreground branch(es).
    seconds:
        Sampler wall-clock (setup + draws), for the batch metrics.
    """

    branch_labels: List[str]
    foreground: List[bool]
    branch_lengths: np.ndarray
    syn: np.ndarray
    nonsyn: np.ndarray
    n_samples: int
    syn_var: Optional[np.ndarray] = None
    nonsyn_var: Optional[np.ndarray] = None
    syn_total_var: Optional[np.ndarray] = None
    nonsyn_total_var: Optional[np.ndarray] = None
    fg_syn_site_var: Optional[np.ndarray] = None
    fg_nonsyn_site_var: Optional[np.ndarray] = None
    seconds: float = 0.0

    @property
    def n_branches(self) -> int:
        return self.syn.shape[0]

    @property
    def n_sites(self) -> int:
        return self.syn.shape[1]

    def branch_totals(self) -> List[Dict[str, object]]:
        """Per-branch event table: totals over sites plus the N/S ratio."""
        rows = []
        for b, label in enumerate(self.branch_labels):
            s = float(self.syn[b].sum())
            n = float(self.nonsyn[b].sum())
            rows.append(
                {
                    "branch": label,
                    "foreground": bool(self.foreground[b]),
                    "length": float(self.branch_lengths[b]),
                    "syn": s,
                    "nonsyn": n,
                    # Event-count analogue of dN/dS; None when no
                    # synonymous events were sampled (ratio undefined).
                    "ratio": (n / s) if s > 0.0 else None,
                }
            )
        return rows

    def _ci_halfwidth(self, variances: np.ndarray) -> np.ndarray:
        """95% normal-approximation half-width of a mean-of-``n_samples``."""
        return Z_95 * np.sqrt(np.maximum(variances, 0.0) / self.n_samples)

    def to_payload(self) -> Dict[str, object]:
        """Compact journal payload (v7 ``mapping`` field, v8 additions).

        Per-branch totals always; the per-site table only for
        foreground branches (summed), which is what the report renders
        next to BEB — full per-branch-per-site matrices would bloat
        the journal quadratically.  Since v8 the payload additionally
        carries ``mapping_ci`` (normal-approximation 95% CI half-widths
        for the branch totals and the foreground site table),
        ``seconds`` and ``method`` (always ``"batched"``; older journals
        may say ``"serial"``) — all additive, so v7 readers (and the
        pinned branch-row shape) are untouched.
        """
        fg = np.asarray(self.foreground, dtype=bool)
        fg_syn = self.syn[fg].sum(axis=0) if fg.any() else np.zeros(self.n_sites)
        fg_nonsyn = self.nonsyn[fg].sum(axis=0) if fg.any() else np.zeros(self.n_sites)
        payload: Dict[str, object] = {
            "n_samples": int(self.n_samples),
            "branches": self.branch_totals(),
            "foreground_sites": {
                "syn": [round(float(x), 6) for x in fg_syn],
                "nonsyn": [round(float(x), 6) for x in fg_nonsyn],
            },
            "seconds": round(float(self.seconds), 6),
            "method": "batched",
        }
        if self.syn_total_var is not None and self.nonsyn_total_var is not None:
            hw_syn = self._ci_halfwidth(self.syn_total_var)
            hw_nonsyn = self._ci_halfwidth(self.nonsyn_total_var)
            ci: Dict[str, object] = {
                "level": 0.95,
                "branches": [
                    {
                        "branch": label,
                        "syn": round(float(hw_syn[b]), 6),
                        "nonsyn": round(float(hw_nonsyn[b]), 6),
                    }
                    for b, label in enumerate(self.branch_labels)
                ],
            }
            if self.fg_syn_site_var is not None and self.fg_nonsyn_site_var is not None:
                ci["foreground_sites"] = {
                    "syn": [
                        round(float(x), 6)
                        for x in self._ci_halfwidth(self.fg_syn_site_var)
                    ],
                    "nonsyn": [
                        round(float(x), 6)
                        for x in self._ci_halfwidth(self.fg_nonsyn_site_var)
                    ],
                }
            payload["mapping_ci"] = ci
        return payload


# ----------------------------------------------------------------------
# Shared categorical primitive
# ----------------------------------------------------------------------
# Every categorical (here and in the serial oracle) uses the same arithmetic:
# cumulative sum along the category axis, scale the pre-drawn uniform by
# the total (1.0 fallback for all-zero columns), count how many partial
# sums it exceeds, clamp.  Per-column float operations are identical
# under any column grouping, which is the whole bit-identity argument.


def _pick_cols(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per column of a non-negative ``(S, m)`` array.

    Consumes ``weights`` in place (every call site builds it as a fresh
    product).  ``count(cum < thr)`` is computed as the first index where
    the monotone cumulative column reaches the threshold — identical
    indices (an all-below column shows up as a False last element and
    resolves to the historical clamp), but ``argmax`` on booleans
    short-circuits where the counting reduction always scanned all S.
    """
    cum = np.cumsum(weights, axis=0, out=weights)
    totals = cum[-1]
    safe = np.where(totals > 0.0, totals, 1.0)
    ge = cum >= (u * safe)[None, :]
    idx = ge.argmax(axis=0)
    idx[~ge[-1]] = weights.shape[0] - 1
    return idx


def _pick_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a non-negative ``(m, S)`` array.

    Same contract and threshold arithmetic as :func:`_pick_cols`
    (consumes ``weights``; first-reach index ≡ below-threshold count).
    """
    cum = np.cumsum(weights, axis=1, out=weights)
    totals = cum[:, -1]
    safe = np.where(totals > 0.0, totals, 1.0)
    ge = cum >= (u * safe)[:, None]
    idx = ge.argmax(axis=1)
    idx[~ge[:, -1]] = weights.shape[1] - 1
    return idx


def _pick_jumps(contrib: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Endpoint-conditioned jump counts from a ``(K+1, m)`` weight array.

    Identical to :func:`_pick_cols` except that an all-zero column
    (an endpoint pair the truncated series deems unreachable) resolves
    to zero jumps instead of the clamp index.
    """
    cum = np.cumsum(contrib, axis=0, out=contrib)
    totals = cum[-1]
    safe = np.where(totals > 0.0, totals, 1.0)
    ge = cum >= (u * safe)[None, :]
    jumps = ge.argmax(axis=0)
    jumps[totals <= 0.0] = 0
    return jumps


@dataclass
class _Plan:
    """Everything the sampler needs for one sampling problem."""

    classes: List
    class_post: np.ndarray
    inside: List[List[np.ndarray]]  # [class][node] -> (S, n_patterns)
    unis: Dict[float, object]
    p_matrix: object  # callable (omega, t) -> dense P
    visits: List[Tuple[int, int, int, float, bool]]  # (k, child, parent, t, fg)
    root_index: int
    pi: np.ndarray
    syn_mask: np.ndarray
    n_patterns: int
    n_samples: int
    jump_weights: Dict[Tuple[float, float], np.ndarray] = field(default_factory=dict)

    @property
    def m_total(self) -> int:
        return self.n_samples * self.n_patterns

    def omega_of(self, cls, fg: bool) -> float:
        return cls.omega_foreground if fg else cls.omega_background

    def weights_for(self, omega: float, t: float) -> np.ndarray:
        key = (omega, t)
        w = self.jump_weights.get(key)
        if w is None:
            w = self.unis[omega].jump_weights(t)
            self.jump_weights[key] = w
        return w


def _draw_uniforms(plan: _Plan, rng: np.random.Generator):
    """Stages 1–3's uniforms in the canonical order (module docstring).

    ``u_jump`` rows are pre-drawn for *every* branch — zero-length
    branches simply ignore theirs — so consumption never diverges
    across column groupings or branch-length vectors of equal shape.
    """
    n_branches = len(plan.visits)
    u_class = rng.random((plan.n_samples, plan.n_patterns))
    u_node = rng.random((1 + n_branches, plan.m_total))
    u_jump = rng.random((n_branches, plan.m_total))
    return u_class, u_node, u_jump


def _inter_offsets(jumps_all: np.ndarray) -> Tuple[np.ndarray, int]:
    """Exclusive-cumsum offsets into ``u_inter`` for every (branch, column).

    The walk of column ``(k, j)`` consumes ``max(N_kj − 1, 0)``
    consecutive variates starting at ``offsets[k, j]`` — C-order over
    the ``(n_branches, m_total)`` count array, the canonical layout
    every column grouping indexes identically.
    """
    inter_counts = np.maximum(jumps_all - 1, 0).astype(np.int64)
    flat = inter_counts.ravel()
    offsets = np.concatenate(([0], np.cumsum(flat)[:-1])).reshape(jumps_all.shape)
    return offsets, int(flat.sum())


# ----------------------------------------------------------------------
# Batched path (array-wide draws over all samples × patterns at once)
# ----------------------------------------------------------------------
def _sample_histories(
    plan: _Plan, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised stages 1–4 over the canonical variates.

    Returns per-history count tensors ``(n_branches, m_total)`` whose
    flat column ``j = sample · n_patterns + pattern``.  All samples are
    drawn at once and stage 4 is grouped by jump count, but every column
    resolves its own uniforms with the per-column arithmetic of the
    serial oracle, bit for bit.
    """
    n_branches = len(plan.visits)
    n_patterns = plan.n_patterns
    m_total = plan.m_total
    n_classes = len(plan.classes)
    u_class, u_node, u_jump = _draw_uniforms(plan, rng)

    # Stage 1 — all samples at once: tile the per-pattern class weights
    # across the flat columns and resolve every u_class in one pick.
    pat_idx = np.tile(np.arange(n_patterns), plan.n_samples)
    cls_flat = _pick_cols(plan.class_post[:, pat_idx], u_class.ravel())

    # Per-class column groups, for the ω-keyed stages below.
    class_cols = [np.flatnonzero(cls_flat == ci) for ci in range(n_classes)]

    def inside_rows(node: int) -> np.ndarray:
        """``L_node[x, pattern_j]`` per flat column ``j``, shaped ``(m, S)``.

        One stacked gather across all classes at once: each column
        reads its *own* class's inside vector (stacking copies, so the
        values are bit-identical to the per-class arrays).
        """
        stacked = np.stack([plan.inside[ci][node] for ci in range(n_classes)])
        return stacked[cls_flat, :, pat_idx]

    _omega_cols_memo: Dict[bool, list] = {}

    def omega_cols(fg: bool):
        """Column groups keyed by this branch's ω (classes merged).

        Stages 3–4 condition only on the branch generator, not the
        class, so classes sharing an ω (model A's background ties)
        walk together — fewer, larger vector operations with per-column
        arithmetic unchanged.  The grouping depends only on the
        foreground flag, so it is computed once per flag value.
        """
        cached = _omega_cols_memo.get(fg)
        if cached is not None:
            return cached
        groups: Dict[float, List[int]] = {}
        for ci, cls in enumerate(plan.classes):
            groups.setdefault(plan.omega_of(cls, fg), []).append(ci)
        out = []
        for omega, cis in groups.items():
            cols = (
                class_cols[cis[0]]
                if len(cis) == 1
                else np.concatenate([class_cols[ci] for ci in cis])
            )
            if cols.size:
                out.append((omega, cols))
        _omega_cols_memo[fg] = out
        return out

    # Stage 2 — joint node states, top-down, ONE pick per visit: the
    # class-dependent operands (P rows, inside columns) are resolved by
    # stacked gathers so every flat column draws in the same call.
    node_states: Dict[int, np.ndarray] = {}
    w = plan.pi[None, :] * inside_rows(plan.root_index)
    node_states[plan.root_index] = _pick_rows(w, u_node[0])

    a_all = np.empty((n_branches, m_total), dtype=np.intp)
    b_all = np.empty((n_branches, m_total), dtype=np.intp)
    jumps_all = np.zeros((n_branches, m_total), dtype=np.intp)
    for k, child, parent, t, fg in plan.visits:
        parent_states = node_states[parent]
        p_stack = np.stack(
            [plan.p_matrix(plan.omega_of(cls, fg), t) for cls in plan.classes]
        )
        w = p_stack[cls_flat, parent_states, :] * inside_rows(child)
        child_states = _pick_rows(w, u_node[1 + k])
        node_states[child] = child_states
        a_all[k] = parent_states
        b_all[k] = child_states

        # Stage 3 — endpoint-conditioned jump counts: one pick per
        # visit.  Each ω group fills its own columns of a shared
        # contribution table (zero-padded past its truncation depth —
        # trailing zeros leave the per-column cumulative weights flat,
        # so the draw is unchanged) and a single categorical pick
        # resolves every site at once.
        groups = [
            (omega, cols)
            for omega, cols in omega_cols(fg)
            if plan.unis[omega].mu * t != 0.0
        ]
        if groups:
            series = {omega: plan.weights_for(omega, t) for omega, _ in groups}
            k_hi = max(w.shape[0] for w in series.values()) - 1
            all_cols = np.concatenate([cols for _, cols in groups])
            contrib = np.zeros((k_hi + 1, all_cols.size))
            pos = 0
            for omega, cols in groups:
                uni = plan.unis[omega]
                weights = series[omega]
                stack = uni.power_stack(weights.shape[0] - 1)
                contrib[: weights.shape[0], pos : pos + cols.size] = (
                    weights[:, None]
                    * stack[:, parent_states[cols], child_states[cols]]
                )
                uni.note_draws(cols.size)
                pos += cols.size
            jumps_all[k, all_cols] = _pick_jumps(contrib, u_jump[k, all_cols])

    offsets, total_inter = _inter_offsets(jumps_all)
    u_inter = rng.random(total_inter)

    # Stage 4 — intermediate states: ``R`` and its power stack depend
    # only on ω — never on the branch length, which stage 3 already
    # consumed — so every event-bearing column in the *whole tree* with
    # the same generator walks in one lockstep loop by step index (a
    # column with ``n_j`` jumps participates in steps ``1..n_j-1``).
    # Each column still reads its own ``u_inter`` slice via the global
    # offsets and lands in its own ``(branch, column)`` cell, so the
    # per-column arithmetic (``R[s,·]·R^{n_j-step}[·,b_j]``, cumsum,
    # threshold) matches the per-branch walk bit for bit.
    syn_c = np.zeros((n_branches, m_total))
    nonsyn_c = np.zeros((n_branches, m_total))
    syn_mask = plan.syn_mask
    by_omega: Dict[float, list] = {}
    for k, child, parent, t, fg in plan.visits:
        jumps_k = jumps_all[k]
        for omega, cols in omega_cols(fg):
            live = cols[jumps_k[cols] >= 1]
            if live.size:
                by_omega.setdefault(omega, []).append((k, live))
    for omega, parts in by_omega.items():
        uni = plan.unis[omega]
        r = uni.r
        br_vec = np.concatenate(
            [np.full(live.size, k, dtype=np.intp) for k, live in parts]
        )
        col_vec = np.concatenate([live for _, live in parts])
        n_vec = jumps_all[br_vec, col_vec]
        state_vec = a_all[br_vec, col_vec]
        target_vec = b_all[br_vec, col_vec]
        off_vec = offsets[br_vec, col_vec]
        n_max = int(n_vec.max())
        stack = uni.power_stack(n_max)
        for step in range(1, n_max):
            mask = n_vec > step
            sub_br = br_vec[mask]
            sub_col = col_vec[mask]
            sub_state = state_vec[mask]
            sub_target = target_vec[mask]
            w = r[sub_state, :] * stack[n_vec[mask] - step, :, sub_target]
            nxt = _pick_rows(w, u_inter[off_vec[mask] + step - 1])
            changed = nxt != sub_state
            if changed.any():
                is_syn = syn_mask[sub_state, nxt] & changed
                syn_c[sub_br, sub_col] += is_syn
                nonsyn_c[sub_br, sub_col] += changed & ~is_syn
            state_vec[mask] = nxt
        changed = state_vec != target_vec
        if changed.any():
            is_syn = syn_mask[state_vec, target_vec] & changed
            syn_c[br_vec, col_vec] += is_syn
            nonsyn_c[br_vec, col_vec] += changed & ~is_syn
    return syn_c, nonsyn_c


# ----------------------------------------------------------------------
def sample_substitution_mapping(
    bound,
    values: Dict[str, float],
    branch_lengths: Optional[Sequence[float]] = None,
    n_samples: int = 16,
    seed: int = 0,
) -> SubstitutionMapping:
    """Sample substitution histories for a bound problem at ``values``.

    Parameters
    ----------
    bound:
        A :class:`repro.core.engine.BoundLikelihood` (any engine).
    values:
        Model parameter values (typically the MLEs).
    branch_lengths:
        Defaults to the bound problem's current vector.
    n_samples:
        Histories per site; the returned counts are means over them.
    seed:
        Seed for the sampler's private generator (reproducible runs).

    Notes
    -----
    Uniformized kernels are obtained through the engine's
    ``_uniformized_for`` memo, so a recovery rung 4 that already fired
    during the fit shares its cached powers of ``R`` with the sampler
    (and vice versa); the per-class inside CLVs come from one
    level-order pass (``BoundLikelihood.class_evaluation``), sharing
    the class graph's subtree aliasing with the fit that produced
    ``values``, and stage 2's dense ``P(t)`` from its operator sets.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    start = time.perf_counter()
    tree = bound.tree
    patterns = bound.patterns
    pi = bound.pi
    lengths = (
        np.asarray(branch_lengths, dtype=float)
        if branch_lengths is not None
        else bound.branch_lengths
    )
    engine = bound.engine

    # Conditionals: one level-order pass fills every node's
    # inside CLV for every class (sharing plan included), plus the exact
    # class log-likelihood matrix the NEB posteriors need.
    ev = bound.class_evaluation(values, lengths)
    classes = ev.graph.nodes
    class_post = class_posteriors(ev.class_lnl, ev.proportions)
    unis = {omega: engine._uniformized_for(decomp) for omega, decomp in ev.decomps.items()}

    non_root = [n for n in tree.nodes if not n.is_root]
    pos_of = {n.index: k for k, n in enumerate(non_root)}
    n_patterns = patterns.n_patterns

    inside: List[List[np.ndarray]] = []
    for ci in range(len(classes)):
        state = ev.states[ci]
        missing = state.missing_nodes()
        if missing:
            raise RuntimeError(
                f"class {ci} pruning state left nodes {missing} without CLVs"
            )
        inside.append(list(state.clvs))

    # Dense P(t) per (ω, t), read off the evaluation's forward operator
    # sets — fixed across samples, computed once.  Every pair a class
    # needs is there: a derived class's background rows are its base's.
    p_memo: Dict[tuple, np.ndarray] = {}

    def p_matrix(omega: float, t: float) -> np.ndarray:
        key = (omega, t)
        if key not in p_memo:
            op = ev.opsets[omega].view(t)
            p_memo[key] = engine._operator_probability_matrix(op)
        return p_memo[key]

    # Preorder child visits: the canonical branch order of the variate
    # matrices (row 1+k of u_node, row k of u_jump).
    visits: List[Tuple[int, int, int, float, bool]] = []
    for node in tree.preorder():
        for child in node.children:
            visits.append(
                (
                    len(visits),
                    child.index,
                    node.index,
                    float(lengths[pos_of[child.index]]),
                    bool(child.foreground),
                )
            )

    plan = _Plan(
        classes=list(classes),
        class_post=class_post,
        inside=inside,
        unis=unis,
        p_matrix=p_matrix,
        visits=visits,
        root_index=tree.root.index,
        pi=pi,
        syn_mask=classification_table(engine.code).synonymous,
        n_patterns=n_patterns,
        n_samples=n_samples,
    )

    syn_c, nonsyn_c = _sample_histories(plan, np.random.default_rng(seed))

    # Reorder visit rows into the engine's branch-vector order before
    # summarising (counts were accumulated per visit).
    n_branches = len(non_root)
    visit_to_pos = np.empty(n_branches, dtype=np.intp)
    for k, child, _, _, _ in visits:
        visit_to_pos[k] = pos_of[child]
    order = np.argsort(visit_to_pos)
    syn_c = syn_c[order].reshape(n_branches, n_samples, n_patterns)
    nonsyn_c = nonsyn_c[order].reshape(n_branches, n_samples, n_patterns)

    weights = np.asarray(patterns.weights, dtype=float)
    fg_flags = np.asarray([bool(n.foreground) for n in non_root], dtype=bool)

    def summarise(counts: np.ndarray):
        mean = counts.mean(axis=1)
        if n_samples > 1:
            site_var = counts.var(axis=1, ddof=1)
            totals = counts @ weights  # (n_branches, n_samples) per-draw totals
            total_var = totals.var(axis=1, ddof=1)
            fg_draws = (
                counts[fg_flags].sum(axis=0)
                if fg_flags.any()
                else np.zeros((n_samples, n_patterns))
            )
            fg_var = fg_draws.var(axis=0, ddof=1)
        else:
            site_var = np.zeros_like(mean)
            total_var = np.zeros(counts.shape[0])
            fg_var = np.zeros(n_patterns)
        return mean, site_var, total_var, fg_var

    syn_mean, syn_site_var, syn_total_var, fg_syn_var = summarise(syn_c)
    nonsyn_mean, nonsyn_site_var, nonsyn_total_var, fg_nonsyn_var = summarise(nonsyn_c)

    labels = [n.name if n.name else f"node#{n.index}" for n in non_root]
    return SubstitutionMapping(
        branch_labels=labels,
        foreground=[bool(f) for f in fg_flags],
        branch_lengths=np.asarray(
            [float(lengths[pos_of[n.index]]) for n in non_root]
        ),
        syn=patterns.expand(syn_mean, axis=1),
        nonsyn=patterns.expand(nonsyn_mean, axis=1),
        n_samples=n_samples,
        syn_var=patterns.expand(syn_site_var, axis=1),
        nonsyn_var=patterns.expand(nonsyn_site_var, axis=1),
        syn_total_var=syn_total_var,
        nonsyn_total_var=nonsyn_total_var,
        fg_syn_site_var=patterns.expand(fg_syn_var, axis=0),
        fg_nonsyn_site_var=patterns.expand(fg_nonsyn_var, axis=0),
        seconds=time.perf_counter() - start,
    )
