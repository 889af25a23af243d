"""Classification of codon pairs for the rate matrix of paper Eq. 1.

Codon models in CodeML only allow substitutions that change a single
nucleotide; such a change is either a *transition* or a *transversion*,
and either *synonymous* or *non-synonymous*.  The instantaneous rate from
codon ``i`` to ``j`` is then::

    q_ij = 0                          (≥2 nucleotide differences)
         = pi_j                       (synonymous transversion)
         = kappa * pi_j               (synonymous transition)
         = omega * pi_j               (non-synonymous transversion)
         = omega * kappa * pi_j       (non-synonymous transition)

This module precomputes, for a genetic code, the full classification
table used by :mod:`repro.codon.matrix` to assemble ``Q`` vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from repro.codon.genetic_code import (
    PURINES,
    GeneticCode,
    is_transition,
    nucleotide_diff_positions,
)

__all__ = ["PairKind", "CodonPairClass", "classify_pair", "classification_table"]


class PairKind(Enum):
    """The five Eq. 1 cases for an ordered codon pair ``(i, j)``, ``i != j``."""

    MULTIPLE = "multiple"  # two or more nucleotide differences: rate 0
    SYN_TRANSVERSION = "syn_tv"
    SYN_TRANSITION = "syn_ts"
    NONSYN_TRANSVERSION = "nonsyn_tv"
    NONSYN_TRANSITION = "nonsyn_ts"


@dataclass(frozen=True)
class CodonPairClass:
    """Full classification of one ordered pair of sense codons."""

    kind: PairKind
    #: Position (0-2) of the single differing nucleotide; None for MULTIPLE.
    position: int | None
    #: True when the change is a transition; None for MULTIPLE.
    transition: bool | None
    #: True when the change is synonymous; None for MULTIPLE.
    synonymous: bool | None

    @property
    def needs_kappa(self) -> bool:
        return bool(self.transition)

    @property
    def needs_omega(self) -> bool:
        return self.synonymous is False


def classify_pair(codon_a: str, codon_b: str, code: GeneticCode) -> CodonPairClass:
    """Classify the ordered sense-codon pair ``codon_a → codon_b``.

    Raises :class:`ValueError` for identical codons or stop codons — those
    never appear as off-diagonal Q entries.
    """
    codon_a, codon_b = codon_a.upper(), codon_b.upper()
    if codon_a == codon_b:
        raise ValueError("classify_pair requires two distinct codons")
    if code.is_stop(codon_a) or code.is_stop(codon_b):
        raise ValueError("stop codons are outside the codon-model state space")
    diffs = nucleotide_diff_positions(codon_a, codon_b)
    if len(diffs) != 1:
        return CodonPairClass(PairKind.MULTIPLE, None, None, None)
    pos = diffs[0]
    ts = is_transition(codon_a[pos], codon_b[pos])
    syn = code.synonymous(codon_a, codon_b)
    if syn and ts:
        kind = PairKind.SYN_TRANSITION
    elif syn:
        kind = PairKind.SYN_TRANSVERSION
    elif ts:
        kind = PairKind.NONSYN_TRANSITION
    else:
        kind = PairKind.NONSYN_TRANSVERSION
    return CodonPairClass(kind, pos, ts, syn)


@lru_cache(maxsize=8)
def classification_table(code: GeneticCode) -> "PairTable":
    """Precompute boolean masks over the ``n × n`` sense-codon grid.

    The masks drive vectorized Q assembly; they are cached per genetic
    code because they never change.  They are built by broadcasting over
    the ``(n, 3)`` nucleotide array, and agree pair for pair with
    :func:`classify_pair`.
    """
    codons = code.sense_codons
    nucs = np.array([list(c) for c in codons])
    differs = nucs[:, None, :] != nucs[None, :, :]
    single = differs.sum(axis=2) == 1
    purine = np.isin(nucs, list(PURINES))
    same_class = purine[:, None, :] == purine[None, :, :]
    transition = single & (differs & same_class).any(axis=2)
    aa = np.array([code.translate(c) for c in codons])
    synonymous = single & (aa[:, None] == aa[None, :])
    return PairTable(single=single, transition=transition, synonymous=synonymous)


@dataclass(frozen=True)
class PairTable:
    """Boolean masks over ordered sense-codon pairs (diagonal excluded).

    ``transition`` and ``synonymous`` are only meaningful where ``single``
    is True.  All three matrices are symmetric — substitution *type* does
    not depend on direction — which is what makes ``Q = S Π`` reversible
    by construction (paper Eq. 2).
    """

    single: np.ndarray
    transition: np.ndarray
    synonymous: np.ndarray

    def __post_init__(self) -> None:
        for name in ("single", "transition", "synonymous"):
            m = getattr(self, name)
            if not np.array_equal(m, m.T):
                raise ValueError(f"pair table mask {name!r} must be symmetric")

    @property
    def n_states(self) -> int:
        return self.single.shape[0]

    def count(self, kind: PairKind) -> int:
        """Number of ordered pairs of the given kind."""
        if kind is PairKind.MULTIPLE:
            n = self.n_states
            return n * (n - 1) - int(self.single.sum())
        if kind is PairKind.SYN_TRANSITION:
            mask = self.single & self.transition & self.synonymous
        elif kind is PairKind.SYN_TRANSVERSION:
            mask = self.single & ~self.transition & self.synonymous
        elif kind is PairKind.NONSYN_TRANSITION:
            mask = self.single & self.transition & ~self.synonymous
        else:
            mask = self.single & ~self.transition & ~self.synonymous
        return int(mask.sum())
