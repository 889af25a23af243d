"""Seeded benchmark inputs: Table II-shaped datasets from the public simulators.

``generate(spec, seed, gene)`` builds one dataset the way
``slimcodeml datasets`` does: a Yule tree, the longest internal branch
marked foreground, and an alignment simulated on it under branch-site
model A.  Gene 0 of seed 0 is the Table II dataset itself, byte for
byte.  Any other ``(seed, gene)`` keeps the Table II tree and draws a
fresh alignment on it from its own RNG stream: a held-out dataset of
the same shape, so a speed-up claimed on one seed can be re-checked on
data it was never tuned on.

"Same shape" includes the number of distinct site patterns, which sets
most of the per-evaluation cost: a re-drawn tree moves it by up to 2x
and a re-drawn alignment by about 10 %.  So a held-out alignment is
drawn from sub-streams ``(spec seed, seed, 0), (…, 1), …`` until its
pattern count is within :data:`PATTERN_TOL` of the Table II dataset's.

The program under test only ever sees the two files ``write_inputs``
produces: PHYLIP and Newick.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Tuple

from repro.alignment.parsers import write_phylip
from repro.alignment.patterns import compress_patterns
from repro.alignment.simulate import simulate_alignment
from repro.datasets import TABLE2_SPECS, DatasetSpec
from repro.models.branch_site import BranchSiteModelA
from repro.trees.newick import write_newick
from repro.trees.simulate import simulate_yule_tree
from repro.utils.rng import make_rng

__all__ = ["spec_for", "generate", "write_inputs"]

#: Relative pattern-count tolerance of a held-out alignment.
PATTERN_TOL = 0.01
#: Alignments drawn at most per held-out dataset (the closest one wins).
MAX_DRAWS = 200


def spec_for(shape: str, toy: bool = False) -> DatasetSpec:
    """The Table II spec of ``shape``.

    ``toy`` shrinks it to a few taxa and codons (the benchmark's quick
    self-test mode), keeping its branch-length scale and generating
    parameters.
    """
    spec = TABLE2_SPECS[shape]
    if toy:
        spec = dataclasses.replace(
            spec, n_species=min(spec.n_species, 6), n_codons=min(spec.n_codons, 40)
        )
    return spec


def generate(spec: DatasetSpec, seed: int, gene: int = 0):
    """``(tree, alignment)`` of gene ``gene`` for ``spec`` at workload seed ``seed``.

    Gene 0 at seed 0 is ``repro.datasets.make_dataset`` step for step.
    Every other ``(seed, gene)`` is a held-out alignment of the same
    shape from its own stream.
    """
    rng = make_rng(spec.seed)
    tree = simulate_yule_tree(
        spec.n_species,
        seed=rng,
        mean_branch_length=spec.mean_branch_length,
        unrooted=True,
    )
    internals = [n for n in tree.nodes if not n.is_root and not n.is_leaf]
    candidates = internals or [n for n in tree.nodes if not n.is_root]
    tree.mark_foreground(max(candidates, key=lambda n: n.length))

    def simulate(stream):
        return simulate_alignment(
            tree, BranchSiteModelA(fix_omega2=False), spec.true_values(),
            n_codons=spec.n_codons, seed=stream,
        ).alignment

    table2 = simulate(rng)
    if seed == 0 and gene == 0:
        return tree, table2
    target = compress_patterns(table2).n_patterns
    stream = [spec.seed, int(seed) % 2**32] + ([int(gene)] if gene else [])
    best = None
    for draw in range(MAX_DRAWS):
        alignment = simulate(make_rng(stream + [draw]))
        gap = abs(compress_patterns(alignment).n_patterns - target)
        if best is None or gap < best[0]:
            best = (gap, alignment)
        if gap <= PATTERN_TOL * target:
            break
    return tree, best[1]


def write_inputs(spec: DatasetSpec, seed: int, prefix: str, gene: int = 0) -> Tuple[str, str]:
    """Write ``<prefix>.phy`` and ``<prefix>.nwk`` as ``slimcodeml datasets`` does."""
    tree, alignment = generate(spec, seed, gene)
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    phy, nwk = f"{prefix}.phy", f"{prefix}.nwk"
    write_phylip(alignment, phy)
    with open(nwk, "w", encoding="utf-8") as handle:
        handle.write(write_newick(tree) + "\n")
    return phy, nwk
