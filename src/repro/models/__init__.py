"""Codon model layer: site-class mixtures over branch categories.

Every model here reduces to the same engine-facing description: a list
of :class:`~repro.models.base.SiteClass` entries, each with a mixture
proportion and an ω for the *background* and *foreground* branch
categories (paper Table I), wrapped in a validated
:class:`~repro.models.class_graph.SiteClassGraph` whose per-evaluation
plan decides which classes share pruning work.  The branch-site model A
uses four classes with distinct fore/background ω and the BS-REL family
generalises it to 2K classes; these are the models the CLI's
``--model`` reaches.  M0, one class with one ω, is the one-ratio start
model CodeML fits before the branch-site pair.
"""

from repro.models.base import CodonSiteModel, SiteClass
from repro.models.branch_site import BranchSiteModelA
from repro.models.bsrel import BSRELModel
from repro.models.class_graph import ClassPlan, SiteClassGraph
from repro.models.m0 import M0Model
from repro.models.parameters import IntervalTransform, PositiveTransform, Transform
from repro.models.registry import DEFAULT_MODEL_SPEC, ModelSpec, resolve_model_spec

__all__ = [
    "BranchSiteModelA",
    "BSRELModel",
    "ClassPlan",
    "CodonSiteModel",
    "DEFAULT_MODEL_SPEC",
    "IntervalTransform",
    "M0Model",
    "ModelSpec",
    "PositiveTransform",
    "SiteClass",
    "SiteClassGraph",
    "Transform",
]
