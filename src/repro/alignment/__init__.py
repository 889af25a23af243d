"""Multiple sequence alignment substrate.

CodeML reads a codon MSA (PHYLIP format in practice, FASTA supported
here too), encodes each column into the 61-state codon space, and — like
all pruning implementations — compresses identical columns into weighted
*site patterns* before the likelihood loop.  The sequence simulator in
:mod:`repro.alignment.simulate` substitutes for the paper's Ensembl
datasets (see DESIGN.md §5).
"""

from repro.alignment.msa import CodonAlignment, MISSING, AMBIGUOUS
from repro.alignment.parsers import read_alignment, write_fasta, write_phylip
from repro.alignment.patterns import PatternAlignment, compress_patterns
from repro.alignment.simulate import simulate_alignment

__all__ = [
    "AMBIGUOUS",
    "CodonAlignment",
    "MISSING",
    "PatternAlignment",
    "compress_patterns",
    "read_alignment",
    "simulate_alignment",
    "write_fasta",
    "write_phylip",
]
