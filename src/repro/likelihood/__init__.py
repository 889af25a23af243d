"""Felsenstein pruning and site-class mixture combination.

The likelihood of the branch-site model is a 4-component mixture over
site classes; each component is an ordinary pruning likelihood computed
with that class's transition matrices (paper §II-B/§II-C).  This
subpackage is engine-agnostic: the actual kernels (how ``P(t)`` is built
and applied) are injected by :mod:`repro.core.engine`.
"""

from repro.likelihood.ancestral import AncestralReconstruction, marginal_reconstruction
from repro.likelihood.mixture import mixture_log_likelihood, site_class_log_likelihoods
from repro.likelihood.pruning import (
    PruningResult,
    PruningState,
    build_leaf_clvs,
    prune_site_class_batched,
)

__all__ = [
    "AncestralReconstruction",
    "PruningResult",
    "PruningState",
    "build_leaf_clvs",
    "marginal_reconstruction",
    "mixture_log_likelihood",
    "prune_site_class_batched",
    "site_class_log_likelihoods",
]
