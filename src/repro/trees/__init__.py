"""Phylogenetic tree substrate: structures, Newick I/O, simulation.

CodeML's input is a tree in Newick format with the branch to test for
positive selection marked ``#1`` (paper Fig. 1).  This subpackage
provides the tree data structure with foreground-branch marks, a Newick
parser/writer that understands PAML's ``#`` (branch) and ``$`` (clade)
labels, and Yule/birth–death tree simulation used to build the synthetic
Table II datasets.
"""

from repro.trees.newick import parse_newick, write_newick
from repro.trees.prune import prune_to_taxa
from repro.trees.simulate import simulate_yule_tree
from repro.trees.tree import Node, Tree

__all__ = [
    "Node",
    "Tree",
    "parse_newick",
    "prune_to_taxa",
    "simulate_yule_tree",
    "write_newick",
]
