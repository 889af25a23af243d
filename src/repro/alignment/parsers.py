"""Alignment file formats: PHYLIP (CodeML's input format) and FASTA.

PAML reads sequential or interleaved PHYLIP; both are supported, with
the relaxed (long-name, whitespace-separated) convention modern
pipelines use.  ``read_alignment`` sniffs the format from the content.
"""

from __future__ import annotations

import os
from typing import List, Tuple, Union

from repro.alignment.msa import CodonAlignment
from repro.codon.genetic_code import GeneticCode, UNIVERSAL

__all__ = [
    "read_alignment",
    "write_fasta",
    "write_phylip",
]

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------------------
# FASTA
# ----------------------------------------------------------------------
def parse_fasta_text(text: str) -> Tuple[List[str], List[str]]:
    """Parse FASTA text into (names, sequences); preserves input order."""
    names: List[str] = []
    chunks: List[List[str]] = []
    current: List[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            name = line[1:].split()[0] if len(line) > 1 else ""
            if not name:
                raise ValueError(f"empty FASTA header at line {lineno}")
            names.append(name)
            current = []
            chunks.append(current)
        else:
            if current is None:
                raise ValueError(f"sequence data before any FASTA header at line {lineno}")
            current.append(line)
    if not names:
        raise ValueError("no FASTA records found")
    return names, ["".join(c) for c in chunks]


def write_fasta(alignment: CodonAlignment, destination: PathLike, width: int = 60) -> None:
    """Write an alignment as wrapped FASTA."""
    with open(destination, "w", encoding="utf-8") as handle:
        for name, seq in zip(alignment.names, alignment.to_sequences()):
            handle.write(f">{name}\n")
            for start in range(0, len(seq), width):
                handle.write(seq[start : start + width] + "\n")


# ----------------------------------------------------------------------
# PHYLIP (sequential and interleaved, relaxed names)
# ----------------------------------------------------------------------
def parse_phylip_text(text: str) -> Tuple[List[str], List[str]]:
    """Parse PHYLIP text into (names, sequences).

    Handles both sequential records (name followed by enough residue
    characters, possibly wrapped over lines) and interleaved blocks.
    Sequence characters may be blank-separated (PAML writes codons in
    triplets separated by spaces).
    """
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ValueError("empty PHYLIP input")
    header = lines[0].split()
    if len(header) < 2:
        raise ValueError(f"bad PHYLIP header {lines[0]!r}: expected 'n_taxa n_chars'")
    try:
        n_taxa, n_chars = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad PHYLIP header {lines[0]!r}: counts must be integers") from None
    if n_taxa <= 0 or n_chars <= 0:
        raise ValueError(f"bad PHYLIP header counts: {n_taxa} taxa, {n_chars} chars")

    body = lines[1:]
    names: List[str] = []
    seqs: List[List[str]] = []

    # First pass: the first n_taxa entries each start with a name.  The
    # format is *sequential* when a record's residues wrap onto nameless
    # lines until the record is complete; it is *interleaved* when an
    # incomplete record is immediately followed by the next name line.
    # The first incomplete record decides the mode for the whole file.
    mode: str | None = None
    cursor = 0
    while len(names) < n_taxa:
        if cursor >= len(body):
            raise ValueError(f"PHYLIP input ended before {n_taxa} taxa were read")
        parts = body[cursor].split()
        names.append(parts[0])
        chunk = "".join(parts[1:])
        cursor += 1
        if mode != "interleaved":
            while (
                len(chunk) < n_chars
                and cursor < len(body)
                and not _looks_like_named_line(body[cursor], n_chars)
            ):
                chunk += body[cursor].replace(" ", "")
                cursor += 1
            if len(chunk) < n_chars:
                mode = "interleaved"
            elif mode is None:
                mode = "sequential"
        seqs.append([chunk])

    # Remaining lines are interleaved continuation blocks, cycling taxa.
    taxon = 0
    while cursor < len(body):
        parts = body[cursor].split()
        # A continuation line may redundantly repeat the name.
        if parts and parts[0] == names[taxon] and len(parts) > 1:
            parts = parts[1:]
        seqs[taxon].append("".join(parts))
        taxon = (taxon + 1) % n_taxa
        cursor += 1

    sequences = ["".join(chunks) for chunks in seqs]
    for name, seq in zip(names, sequences):
        if len(seq) != n_chars:
            raise ValueError(
                f"taxon {name!r} has {len(seq)} characters, header promised {n_chars}"
            )
    return names, sequences


def _looks_like_named_line(line: str, n_chars: int) -> bool:
    """Heuristic: does this line start a new taxon record?

    A name token contains characters outside the nucleotide/ambiguity
    alphabet, or the line is 'name SEQUENCE' shaped.
    """
    token = line.split()[0]
    residue_chars = set("TCAGUNRYSWKMBDHVX?-.tcagunryswkmbdhvx")
    return not all(ch in residue_chars for ch in token)


def write_phylip(alignment: CodonAlignment, destination: PathLike) -> None:
    """Write sequential PHYLIP the way PAML expects (two-space separator)."""
    seqs = alignment.to_sequences()
    name_width = max(10, max(len(n) for n in alignment.names) + 2)
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(f" {alignment.n_taxa} {alignment.n_codons * 3}\n")
        for name, seq in zip(alignment.names, seqs):
            handle.write(f"{name:<{name_width}s}{seq}\n")


def read_alignment(source: PathLike, code: GeneticCode = UNIVERSAL, **kwargs) -> CodonAlignment:
    """Read FASTA or PHYLIP, sniffing the format from the first character."""
    with open(source, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith(">"):
        names, seqs = parse_fasta_text(text)
    else:
        names, seqs = parse_phylip_text(text)
    return CodonAlignment.from_sequences(names, seqs, code=code, **kwargs)
