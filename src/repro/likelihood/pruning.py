"""Felsenstein's pruning algorithm over site patterns.

A post-order pass propagates conditional probability vectors (CLVs) from
the leaves to the root (paper Fig. 2): along each branch the child's CLV
is transformed by the branch's transition operator, and at each internal
node the incoming vectors are multiplied elementwise.  All patterns are
carried together, so a CLV here is an ``(n_states, n_patterns)`` matrix.

Numerical rescaling: with many branches the per-pattern CLV magnitudes
underflow double precision, so whenever a completed node's column
maximum drops below a threshold the column is renormalised and the log
factor accumulated per pattern; the root likelihood re-applies the
accumulated logs.  This is the standard CodeML/RAxML technique and is
exercised directly by the 95-species dataset iv.

Branches are grouped by the height of their child node, so one fused
propagation call serves every branch of a tree level (DESIGN.md §10).
A :class:`PruningState` keeps every node's CLV, every branch's
propagated contribution, and every node's per-pattern rescale vector;
each evaluation fills fresh states.

Partial mode updates a filled state: given the branch-table rows to
recompute (:func:`compute_recompute_rows` of the branches whose operator
differs), only those rows re-propagate and only the nodes they feed are
rebuilt; everything else is served from the state buffers.  The
recomputation replays the *same* arithmetic in the *same* order as a
full pass (child contributions multiplied in branch-table row order,
rescale vectors summed in node completion order), so its results are
bit-identical to full re-pruning.

This layer is class-structure agnostic: which passes run, which states
alias another class's buffers (via :meth:`PruningState.derive`), and
which rows each pass recomputes are all decided above, by the
evaluator on the plan of the model's
:class:`~repro.models.class_graph.SiteClassGraph` — a derived class
maps to ``derive()`` plus the foreground path's rows (or none).
:func:`compute_recompute_rows` is the one rule that turns changed
branches into recomputed rows.  See DESIGN.md §11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.alignment.msa import AMBIGUOUS, MISSING, CodonAlignment
from repro.core.recovery import PruningGuard

__all__ = [
    "PruningResult",
    "PruningState",
    "LevelSchedule",
    "build_leaf_clvs",
    "build_level_schedule",
    "compute_recompute_rows",
    "prune_site_class_batched",
]

#: Rescale a completed node's pattern column when its max falls below this.
SCALE_THRESHOLD = 1e-70

#: A branch's transition operator handle, as produced by an engine.
Operator = object
#: Engine hook: (branch_length, is_foreground) → operator.
TransitionFactory = Callable[[float, bool], Operator]
#: Engine hook: list of (operator, child_clv) for one tree level → list
#: of fresh contribution arrays, bit-identical to applying each operator
#: on its own.
LevelPropagator = Callable[[List[Tuple[Operator, np.ndarray]]], List[np.ndarray]]


@dataclass
class PruningResult:
    """Root CLV and accumulated per-pattern log scale factors."""

    root_clv: np.ndarray
    log_scalers: np.ndarray

    def site_log_likelihoods(self, pi: np.ndarray) -> np.ndarray:
        """Per-pattern log-likelihood: ``log(π · clv_root) + scalers``.

        Round-off can leave a tiny negative dot product for patterns
        that are (numerically) impossible under the current parameters;
        those map to ``-inf`` rather than NaN so the optimizer's barrier
        logic keeps working.
        """
        site_l = pi @ self.root_clv
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(site_l > 0.0, np.log(np.maximum(site_l, 1e-320)), -np.inf)
        return logs + self.log_scalers


def build_leaf_clvs(alignment: CodonAlignment) -> List[np.ndarray]:
    """Dense leaf CLV matrices, one ``(n_states, n_patterns)`` per taxon row.

    Exact states get an indicator column, missing cells all-ones, and
    ambiguous cells the indicator of their compatible-state set.  Exact
    and missing columns are filled with one fancy-indexing pass per
    taxon; only the (rare) ambiguous columns fall back to per-column
    assignment from :attr:`CodonAlignment.ambiguity_sets`.
    """
    n_states = alignment.code.n_states
    states = alignment.states
    columns = np.arange(alignment.n_codons)
    clvs = []
    for row in range(alignment.n_taxa):
        clv = np.zeros((n_states, alignment.n_codons), order="F")
        row_states = states[row]
        exact = row_states >= 0
        clv[row_states[exact], columns[exact]] = 1.0
        clv[:, row_states == MISSING] = 1.0
        for col in np.flatnonzero(row_states == AMBIGUOUS):
            clv[list(alignment.ambiguity_sets[(row, int(col))]), col] = 1.0
        clvs.append(clv)
    return clvs


@dataclass
class PruningState:
    """Per-class pruning buffers: inside CLVs, contributions, rescale vectors.

    All three lists are indexed by node.  Stored arrays are treated as
    **immutable** once written: a partial pass that recomputes a node
    always allocates fresh arrays, so states derived via :meth:`derive`
    (cross-class aliasing) can safely share buffers with their base
    state, and the branch gradient can read a finished evaluation's
    states.
    """

    #: Per-node CLV after rescaling (leaves alias their leaf CLVs).
    clvs: List[Optional[np.ndarray]]
    #: Per-child-node propagated contribution along the branch above it.
    contributions: List[Optional[np.ndarray]]
    #: Per-node log rescale vector; ``None`` = no rescaling fired there.
    scalers: List[Optional[np.ndarray]]

    @classmethod
    def empty(cls, n_nodes: int) -> "PruningState":
        return cls(clvs=[None] * n_nodes, contributions=[None] * n_nodes, scalers=[None] * n_nodes)

    def derive(self) -> "PruningState":
        """A shallow copy sharing all arrays — mutate lists, not buffers."""
        return PruningState(
            clvs=list(self.clvs),
            contributions=list(self.contributions),
            scalers=list(self.scalers),
        )


def _complete_node(
    node_clv: np.ndarray,
    parent: int,
    scale_threshold: float,
    guard: PruningGuard,
) -> Optional[np.ndarray]:
    """Guard-check and rescale a completed node's CLV in place.

    Returns the per-pattern log rescale vector when rescaling fired,
    else ``None``.  The per-branch reference recursion in the test suite
    calls it too, so the arithmetic (and the guard semantics) of the two
    cannot diverge.

    NaN/Inf columns and pattern columns that went *entirely* zero (which
    would otherwise surface much later as an uninformative ``-inf``
    log-likelihood) raise ``guard``'s typed
    :class:`~repro.core.recovery.NumericalError` naming the node and the
    offending pattern indices.
    """
    col_max = node_clv.max(axis=0)
    # NaN propagates through max(); +inf survives it too, so one
    # O(n_patterns) pass over the column maxima catches both non-finite
    # modes at the node where they appear.
    bad = ~np.isfinite(col_max)
    if bad.any():
        patterns = np.flatnonzero(bad)
        raise guard.fail(
            "clv_nonfinite",
            f"non-finite CLV at node {parent} in "
            f"{patterns.shape[0]} pattern column(s)",
            node=int(parent),
            patterns=str([int(i) for i in patterns[:8]]),
        )
    needs = col_max < scale_threshold
    if not needs.any():
        return None
    zero = needs & (col_max <= 0.0)
    if zero.any():
        patterns = np.flatnonzero(zero)
        raise guard.fail(
            "clv_zero_column",
            f"pattern column(s) went entirely zero at node "
            f"{parent} — underflow past rescue or data "
            f"impossible under the current parameters",
            node=int(parent),
            patterns=str([int(i) for i in patterns[:8]]),
        )
    safe = np.where(needs, col_max, 1.0)
    node_clv /= safe[None, :]
    return np.log(safe)


# ---------------------------------------------------------------------------
# Level-order pruning — DESIGN.md §10
#
# The two orderings that carry float semantics are kept exactly as in a
# sequential post-order pass: each parent multiplies its children's
# contributions in branch-table row order, and the total rescale vector
# is re-summed in the sequential pass's node completion order — so the
# level-order result is bit-identical to the per-branch recursion
# (kept as the test oracle in ``tests/oracles.py``).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSchedule:
    """Static level-order plan for one branch table.

    Built once per binding (the topology never changes between
    evaluations) by :func:`build_level_schedule`.  All lists are shared
    and treated as immutable.
    """

    n_nodes: int
    #: Per-node height: 0 at leaves, ``1 + max(child heights)`` inside.
    heights: List[int]
    #: Branch-table row indices grouped by child height, preserving row
    #: order within each level.
    levels: List[List[int]]
    #: Internal nodes grouped by their own height; a node of height h is
    #: completed after level h−1 is propagated and before level h is.
    complete_at: List[List[int]]
    #: Per-node children in branch-table row order.
    children: List[List[int]]
    #: Internal nodes in the order the sequential pass completes them
    #: (ascending index of their last incoming branch row).
    completion_order: List[int]
    root_index: int


def build_level_schedule(
    branch_table: Sequence[Tuple[int, int, object, object]], n_nodes: int
) -> LevelSchedule:
    """Compute the :class:`LevelSchedule` of a post-ordered branch table.

    Raises ``ValueError`` for an empty table, and for a table that is not
    post-ordered (a node gains a child after its own branch was listed),
    or that leaves a node with more than one parent branch.
    """
    if not branch_table:
        raise ValueError("cannot schedule an empty branch table")
    children: List[List[int]] = [[] for _ in range(n_nodes)]
    heights = [0] * n_nodes
    last_row = [-1] * n_nodes
    root_index = -1
    consumed = bytearray(n_nodes)
    for ri, (child, parent, _, _) in enumerate(branch_table):
        if consumed[parent] or consumed[child]:
            raise ValueError(
                f"branch table is not post-ordered: row {ri} ({child} -> {parent})"
            )
        consumed[child] = 1
        children[parent].append(child)
        if heights[child] + 1 > heights[parent]:
            heights[parent] = heights[child] + 1
        last_row[parent] = ri
        root_index = parent
    max_level = max(heights[child] for child, _, _, _ in branch_table)
    levels: List[List[int]] = [[] for _ in range(max_level + 1)]
    for ri, (child, _, _, _) in enumerate(branch_table):
        levels[heights[child]].append(ri)
    internal = [p for p in range(n_nodes) if children[p]]
    completion_order = sorted(internal, key=lambda p: last_row[p])
    complete_at: List[List[int]] = [
        [] for _ in range(max(heights[p] for p in internal) + 1)
    ]
    for p in internal:
        complete_at[heights[p]].append(p)
    return LevelSchedule(
        n_nodes=n_nodes,
        heights=heights,
        levels=levels,
        complete_at=complete_at,
        children=children,
        completion_order=completion_order,
        root_index=root_index,
    )


def compute_recompute_rows(
    branch_table: Sequence[Tuple[int, int, object, object]],
    dirty: Optional[Set[int]],
) -> List[int]:
    """Rows to recompute when the branches above the ``dirty`` nodes change.

    The one rule for which rows a pass recomputes: a branch is
    recomputed iff its child is dirty or its child's CLV changed.  The
    evaluator calls it while it plans the operator set an evaluation
    will need, and hands the same list to
    :func:`prune_site_class_batched`.  ``dirty=None`` means every
    branch.
    """
    if dirty is None:
        return list(range(len(branch_table)))
    changed: Set[int] = set()
    out: List[int] = []
    for ri, (child, parent, _, _) in enumerate(branch_table):
        if child in dirty or child in changed:
            out.append(ri)
            changed.add(parent)
    return out


def _complete_from_children(
    state: PruningState,
    parent: int,
    kids: Sequence[int],
    scale_threshold: float,
    guard: PruningGuard,
) -> None:
    """Rebuild a node's CLV from stored contributions (row order) and rescale."""
    node_clv = state.contributions[kids[0]].copy(order="K")
    for kid in kids[1:]:
        node_clv *= state.contributions[kid]
    state.clvs[parent] = node_clv
    state.scalers[parent] = _complete_node(node_clv, parent, scale_threshold, guard)


def _total_log_scalers(
    state: PruningState, schedule: LevelSchedule, n_patterns: int
) -> np.ndarray:
    """Sum per-node rescale vectors in completion order.

    A sequential pass adds each firing node's vector into a zero
    accumulator as the node completes; iterating the schedule's
    ``completion_order`` replays those additions operand-for-operand,
    so the float result is identical.
    """
    total = np.zeros(n_patterns)
    for node in schedule.completion_order:
        vec = state.scalers[node]
        if vec is not None:
            total += vec
    return total


def prune_site_class_batched(
    branch_table: Sequence[Tuple[int, int, float, bool]],
    schedule: LevelSchedule,
    leaf_clvs: Sequence[np.ndarray],
    transition_factory: TransitionFactory,
    propagate_level: LevelPropagator,
    state: PruningState,
    guard: PruningGuard,
    scale_threshold: float = SCALE_THRESHOLD,
    recompute: Optional[Sequence[int]] = None,
) -> PruningResult:
    """Level-order pruning pass for a single site class.

    Parameters
    ----------
    branch_table:
        Post-ordered ``(child_index, parent_index, length, foreground)``
        rows from :meth:`repro.trees.tree.Tree.branch_table`.
    schedule:
        The table's :func:`build_level_schedule`.
    leaf_clvs:
        Leaf CLVs indexed by leaf node index (prefix of the node range).
    transition_factory, propagate_level:
        Engine kernels (see module type aliases).
    state:
        Filled in place: an empty (:meth:`PruningState.empty`) state by
        a full pass, a filled one along ``recompute``.
    guard:
        The :class:`~repro.core.recovery.PruningGuard` checking each
        completed node's CLV (see :func:`_complete_node`).
    recompute:
        The branch-table rows to recompute, as
        :func:`compute_recompute_rows` derives them; ``None`` means every
        row, which an empty state needs.

    A node's CLV is rebuilt iff one of its incoming rows is recomputed,
    from fresh arrays (shared buffers are never mutated).  See the
    section comment above for the two order invariants that make the
    result bit-identical to a sequential pass.
    """
    n_patterns = leaf_clvs[0].shape[1]
    n_rows = len(branch_table)
    if recompute is None:
        recompute = range(n_rows)
    elif len(recompute) < n_rows and state.clvs[schedule.root_index] is None:
        raise ValueError("an empty pruning state needs every row recomputed")
    state.clvs[: len(leaf_clvs)] = leaf_clvs
    redo = bytearray(n_rows)
    rebuild = bytearray(schedule.n_nodes)
    for ri in recompute:
        redo[ri] = 1
        rebuild[branch_table[ri][1]] = 1

    n_phases = max(len(schedule.levels), len(schedule.complete_at))
    for h in range(n_phases):
        if h < len(schedule.complete_at):
            for parent in schedule.complete_at[h]:
                if rebuild[parent]:
                    _complete_from_children(
                        state, parent, schedule.children[parent], scale_threshold, guard
                    )
        if h < len(schedule.levels):
            todo = [ri for ri in schedule.levels[h] if redo[ri]]
            if todo:
                items = [
                    (transition_factory(branch_table[ri][2], branch_table[ri][3]),
                     state.clvs[branch_table[ri][0]])
                    for ri in todo
                ]
                contributions = propagate_level(items)
                for ri, contribution in zip(todo, contributions):
                    state.contributions[branch_table[ri][0]] = contribution

    root_clv = state.clvs[schedule.root_index]
    assert root_clv is not None
    return PruningResult(
        root_clv=root_clv, log_scalers=_total_log_scalers(state, schedule, n_patterns)
    )
