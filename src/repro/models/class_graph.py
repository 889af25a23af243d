"""The site-class graph: N mixture classes plus derived sharing edges.

Every layer of the mixture stack used to special-case the branch-site
model A's four classes — literal ``"0"/"1"/"2a"/"2b"`` names and the
hard-wired 0↔2a / 1↔2b background-tying pairs.  This module replaces
that shape with a model-agnostic graph:

* **Nodes** are :class:`repro.models.base.SiteClass` values — a weight
  plus one ω per branch partition (background / foreground).
* **Sharing edges** are *derived* from operator identity, never
  declared: class *i* can alias class *j*'s conditional vectors exactly
  when every transition operator the two pruning passes apply to a
  branch is the same object.  Operators are keyed by (decomposition, t),
  and :func:`repro.models.scaling.build_class_matrices` pools the rate
  matrices of both branch categories per distinct ω — so "same operator
  on every background branch" reduces to ``omega_background`` equality,
  and the alias is *total* when ``omega_foreground`` matches too.  An
  edge therefore means "bit-identical CLVs on every subtree not
  containing the foreground branch" (partial share: re-prune only the
  foreground-to-root path) or "bit-identical everywhere" (full share).

For model A this derivation reproduces the historical pairs — 0↔2a and
1↔2b share backgrounds always, and 1↔2b becomes a full share under H0
where ω2 is fixed to 1 — but it holds for any N-class mixture, which is
what makes the BS-REL family (``models/bsrel.py``) affordable: of 2K
classes, K ride sharing edges.

The graph also owns weight validation (finite, in [0, 1], summing to 1)
so malformed proportions raise here, at the model boundary, instead of
surfacing later as a non-finite-CLV recovery event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import SiteClass

__all__ = ["SharingEdge", "ClassPlan", "SiteClassGraph"]

#: Evaluation modes a planned class pass can take (see :meth:`SiteClassGraph.plan`).
_MODES = ("skip", "derive", "populate")


@dataclass(frozen=True)
class SharingEdge:
    """A derived alias edge: ``target`` can reuse ``base``'s CLV state.

    ``full`` is True when the foreground operators match too, i.e. the
    target's entire pruning pass is bit-identical to the base's and no
    branch needs re-pruning at all.
    """

    target: int
    base: int
    full: bool


@dataclass(frozen=True)
class ClassPlan:
    """One class's planned pruning pass.

    ``mode`` is one of ``skip`` (zero-weight class elided), ``derive``
    (alias ``base``'s state; re-prune nothing when ``full_share`` else
    only the foreground-to-root path) or ``populate`` (prune from
    scratch).
    """

    index: int
    mode: str
    base: Optional[int] = None
    full_share: bool = False


class SiteClassGraph:
    """Validated site-class nodes plus operator-identity sharing edges."""

    __slots__ = ("nodes", "edges", "_index_of")

    def __init__(self, nodes: Tuple[SiteClass, ...], edges: Tuple[Optional[SharingEdge], ...]):
        self.nodes = nodes
        self.edges = edges
        self._index_of: Dict[str, int] = {cls.label: i for i, cls in enumerate(nodes)}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_classes(cls, classes: Sequence[SiteClass]) -> "SiteClassGraph":
        """Build and validate the graph for a concrete class list.

        Raises ``ValueError`` (naming the offending class) on duplicate
        labels, non-finite or negative weights, or weights that do not
        sum to 1 — per-class range checks already live in
        :class:`SiteClass` itself.
        """
        nodes = tuple(classes)
        if not nodes:
            raise ValueError("site-class graph needs at least one class")
        seen_labels: Dict[str, int] = {}
        total = 0.0
        for i, node in enumerate(nodes):
            if node.label in seen_labels:
                raise ValueError(
                    f"duplicate site-class label {node.label!r} "
                    f"(classes {seen_labels[node.label]} and {i})"
                )
            seen_labels[node.label] = i
            if not math.isfinite(node.proportion) or node.proportion < 0.0:
                raise ValueError(
                    f"class {node.label!r} proportion {node.proportion} is not a weight"
                )
            total += node.proportion
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-8):
            raise ValueError(
                f"site-class proportions sum to {total!r}, not 1 "
                f"(classes {[n.label for n in nodes]})"
            )

        # Derive sharing edges: the base of class i is the *first* class
        # with the same background ω (hence the same pooled decomposition
        # and the same operator on every background branch).
        edges: List[Optional[SharingEdge]] = []
        first_with_bg: Dict[float, int] = {}
        for i, node in enumerate(nodes):
            base = first_with_bg.setdefault(node.omega_background, i)
            if base == i:
                edges.append(None)
            else:
                full = node.omega_foreground == nodes[base].omega_foreground
                edges.append(SharingEdge(target=i, base=base, full=full))
        return cls(nodes, tuple(edges))

    # -- node views -----------------------------------------------------
    @property
    def n_classes(self) -> int:
        return len(self.nodes)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(node.label for node in self.nodes)

    @property
    def proportions(self) -> np.ndarray:
        """Class weights as a float array (validated to sum to 1)."""
        return np.array([node.proportion for node in self.nodes], dtype=float)

    def index_of(self, label: str) -> int:
        """Index of the class named ``label`` (raises ``KeyError``)."""
        try:
            return self._index_of[label]
        except KeyError:
            raise KeyError(
                f"no site class labelled {label!r}; have {list(self._index_of)}"
            ) from None

    @property
    def positive_indices(self) -> Tuple[int, ...]:
        """Indices of classes flagged as potentially under positive selection."""
        return tuple(i for i, node in enumerate(self.nodes) if node.positive)

    @property
    def positive_labels(self) -> Tuple[str, ...]:
        return tuple(self.nodes[i].label for i in self.positive_indices)

    def distinct_omegas(self) -> List[float]:
        """Sorted distinct ω values across classes and branch partitions."""
        seen = set()
        for node in self.nodes:
            seen.add(round(node.omega_background, 15))
            seen.add(round(node.omega_foreground, 15))
        return sorted(seen)

    @property
    def shared_classes(self) -> Tuple[int, ...]:
        """Classes that ride a sharing edge (their background pass is free)."""
        return tuple(i for i, e in enumerate(self.edges) if e is not None)

    # -- evaluation planning -------------------------------------------
    def plan(self, *, skip_zero: bool = False) -> List[ClassPlan]:
        """Per-class pruning plan for one likelihood evaluation.

        ``skip_zero`` elides zero-weight classes entirely (their mixture
        row is masked out).

        The static :attr:`edges` cannot be used verbatim here because a
        skipped class breaks the chain at runtime: sharing requires the
        base's state to be materialised *this* evaluation, so the base
        of record is the first class with a matching background ω that
        actually runs a populating pass.
        """
        plans: List[ClassPlan] = []
        first_live_bg: Dict[float, int] = {}
        for idx, node in enumerate(self.nodes):
            if skip_zero and node.proportion == 0.0:
                plans.append(ClassPlan(idx, "skip"))
                continue
            base_idx = first_live_bg.get(node.omega_background)
            if base_idx is not None:
                same_fg = node.omega_foreground == self.nodes[base_idx].omega_foreground
                plans.append(ClassPlan(idx, "derive", base=base_idx, full_share=same_fg))
                continue
            plans.append(ClassPlan(idx, "populate"))
            first_live_bg[node.omega_background] = idx
        return plans

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __repr__(self) -> str:
        shared = ", ".join(
            f"{self.nodes[e.target].label}→{self.nodes[e.base].label}"
            f"{'(full)' if e.full else ''}"
            for e in self.edges
            if e is not None
        )
        return (
            f"SiteClassGraph({len(self.nodes)} classes: {list(self.labels)}"
            + (f"; shares {shared}" if shared else "")
            + ")"
        )
