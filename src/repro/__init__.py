"""SlimCodeML reproduction: optimized branch-site codon-model likelihoods.

A from-scratch Python implementation of the system described in
*SlimCodeML: An Optimized Version of CodeML for the Branch-Site Model*
(Schabauer et al., IEEE IPDPSW 2012): the branch-site codon model A, the
full CodeML-style maximum-likelihood pipeline around it, and the paper's
optimized likelihood kernels (symmetrised ``dsyrk`` matrix exponential,
symmetric CLV propagation, BLAS-3 bundling) next to a faithful
CodeML-v4.4c-style comparator.

Quick start::

    from repro import (
        BranchSiteModelA, make_engine, fit_branch_site_test,
        simulate_yule_tree, simulate_alignment,
    )
    tree = simulate_yule_tree(8, seed=1)
    tree.mark_foreground(tree.leaves[0])
    truth = {"kappa": 2.0, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
    sim = simulate_alignment(tree, BranchSiteModelA(), truth, n_codons=300, seed=2)
    engine = make_engine("slim-v2")
    test = fit_branch_site_test(lambda m: engine.bind(tree, sim.alignment, m), seed=1)
    print(test.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.alignment.msa import CodonAlignment
from repro.alignment.parsers import read_alignment
from repro.alignment.patterns import compress_patterns
from repro.alignment.simulate import simulate_alignment
from repro.codon.frequencies import estimate_codon_frequencies
from repro.codon.genetic_code import UNIVERSAL, get_genetic_code
from repro.codon.matrix import build_rate_matrix
from repro.core.engine import (
    BaselineEngine,
    BoundLikelihood,
    LikelihoodEngine,
    SlimEngine,
    SlimV2Engine,
    make_engine,
)
from repro.core.expm import (
    transition_matrix_einsum,
    transition_matrix_gemm,
    transition_matrix_syrk,
)
from repro.datasets import make_dataset, species_sweep_dataset
from repro.likelihood.ancestral import marginal_reconstruction
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.optimize.beb import beb_site_probabilities, neb_site_probabilities
from repro.optimize.lrt import likelihood_ratio_test
from repro.optimize.ml import fit_branch_site_test, fit_model
from repro.trees.newick import parse_newick, write_newick
from repro.trees.prune import prune_to_taxa
from repro.trees.simulate import simulate_yule_tree
from repro.trees.tree import Node, Tree
from repro.utils.numerics import relative_difference

__version__ = "1.0.0"

__all__ = [
    "BaselineEngine",
    "BoundLikelihood",
    "BranchSiteModelA",
    "CodonAlignment",
    "LikelihoodEngine",
    "M0Model",
    "Node",
    "SlimEngine",
    "SlimV2Engine",
    "Tree",
    "UNIVERSAL",
    "__version__",
    "beb_site_probabilities",
    "build_rate_matrix",
    "compress_patterns",
    "estimate_codon_frequencies",
    "fit_branch_site_test",
    "fit_model",
    "get_genetic_code",
    "likelihood_ratio_test",
    "make_dataset",
    "make_engine",
    "marginal_reconstruction",
    "neb_site_probabilities",
    "parse_newick",
    "prune_to_taxa",
    "read_alignment",
    "relative_difference",
    "simulate_alignment",
    "simulate_yule_tree",
    "species_sweep_dataset",
    "transition_matrix_einsum",
    "transition_matrix_gemm",
    "transition_matrix_syrk",
    "write_newick",
]
