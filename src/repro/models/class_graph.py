"""The site-class graph: N mixture classes and their per-evaluation plan.

Every layer of the mixture stack used to special-case the branch-site
model A's four classes — literal ``"0"/"1"/"2a"/"2b"`` names and the
hard-wired 0↔2a / 1↔2b background-tying pairs.  This module replaces
that shape with a model-agnostic graph:

* **Nodes** are :class:`repro.models.base.SiteClass` values — a weight
  plus one ω per branch partition (background / foreground).
* **Sharing** is *derived* from operator identity, never declared, and
  only by :meth:`SiteClassGraph.plan`: class *i* can alias class *j*'s
  conditional vectors exactly when every transition operator the two
  pruning passes apply to a branch is the same object.  Operators are
  keyed by (decomposition, t), and
  :func:`repro.models.scaling.build_class_matrices` pools the rate
  matrices of both branch categories per distinct ω — so "same operator
  on every background branch" reduces to ``omega_background`` equality,
  and the alias is *total* when ``omega_foreground`` matches too.  A
  derived class therefore has bit-identical CLVs on every subtree not
  containing the foreground branch (partial share: re-prune only the
  foreground-to-root path) or everywhere (full share).

For model A this derivation reproduces the historical pairs — 0↔2a and
1↔2b share backgrounds always, and 1↔2b becomes a full share under H0
where ω2 is fixed to 1 — but it holds for any N-class mixture, which is
what makes the BS-REL family (``models/bsrel.py``) affordable: of 2K
classes, K derive from a base.

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

__all__ = ["ClassPlan", "SiteClassGraph"]

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
    """Validated site-class nodes and their operator-identity plan."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: Tuple[SiteClass, ...]):
        self.nodes = nodes

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
        return cls(nodes)

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

    @property
    def positive_indices(self) -> Tuple[int, ...]:
        """Indices of classes flagged as potentially under positive selection."""
        return tuple(i for i, node in enumerate(self.nodes) if node.positive)

    @property
    def positive_labels(self) -> Tuple[str, ...]:
        return tuple(self.nodes[i].label for i in self.positive_indices)

    # -- evaluation planning -------------------------------------------
    def plan(self, *, skip_zero: bool = False) -> List[ClassPlan]:
        """Per-class pruning plan for one likelihood evaluation.

        The one place class sharing is derived.  A class derives from
        the first earlier class with the same background ω that runs a
        populating pass (so every background operator is the same
        object); the share is full when the foreground ω matches too.

        ``skip_zero`` elides zero-weight classes entirely (their mixture
        row is masked out).  A skipped class runs no pass, so it cannot
        be a base: sharing needs the base's state materialised *this*
        evaluation.
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
        return f"SiteClassGraph({len(self.nodes)} classes: {list(self.labels)})"
