"""Codon-pair classification against hand-checked cases (paper Eq. 1)."""

import numpy as np
import pytest

from repro.codon.classify import PairKind, classification_table, classify_pair
from repro.codon.genetic_code import UNIVERSAL, VERTEBRATE_MITOCHONDRIAL


class TestClassifyPair:
    def test_synonymous_transition(self):
        # TTT (Phe) -> TTC (Phe): T->C at pos 2 is a pyrimidine transition.
        cls = classify_pair("TTT", "TTC", UNIVERSAL)
        assert cls.kind is PairKind.SYN_TRANSITION
        assert cls.position == 2
        assert cls.transition is True and cls.synonymous is True

    def test_synonymous_transversion(self):
        # CGT (Arg) -> CGG (Arg): T->G transversion, synonymous.
        cls = classify_pair("CGT", "CGG", UNIVERSAL)
        assert cls.kind is PairKind.SYN_TRANSVERSION

    def test_nonsynonymous_transition(self):
        # TTT (Phe) -> CTT (Leu): T->C at pos 0, transition, nonsyn.
        cls = classify_pair("TTT", "CTT", UNIVERSAL)
        assert cls.kind is PairKind.NONSYN_TRANSITION
        assert cls.position == 0

    def test_nonsynonymous_transversion(self):
        # TTT (Phe) -> TAT (Tyr)?? T->A at pos 1, transversion, nonsyn.
        cls = classify_pair("TTT", "TAT", UNIVERSAL)
        assert cls.kind is PairKind.NONSYN_TRANSVERSION

    def test_multiple_differences(self):
        cls = classify_pair("TTT", "TCC", UNIVERSAL)
        assert cls.kind is PairKind.MULTIPLE
        assert cls.position is None

    def test_needs_flags(self):
        assert classify_pair("TTT", "TTC", UNIVERSAL).needs_kappa
        assert not classify_pair("TTT", "TTC", UNIVERSAL).needs_omega
        assert classify_pair("TTT", "CTT", UNIVERSAL).needs_omega

    def test_identical_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            classify_pair("TTT", "TTT", UNIVERSAL)

    def test_stop_rejected(self):
        with pytest.raises(ValueError, match="stop"):
            classify_pair("TAA", "TAT", UNIVERSAL)

    def test_direction_symmetry(self):
        a = classify_pair("TTT", "CTT", UNIVERSAL)
        b = classify_pair("CTT", "TTT", UNIVERSAL)
        assert a.kind is b.kind and a.position == b.position


class TestClassificationTable:
    def test_masks_are_symmetric_and_diagonal_free(self):
        table = classification_table(UNIVERSAL)
        assert not table.single.diagonal().any()
        assert (table.single == table.single.T).all()

    def test_single_difference_count(self):
        # Every codon has ≤9 single-nucleotide neighbours; stops remove some.
        table = classification_table(UNIVERSAL)
        per_row = table.single.sum(axis=1)
        assert per_row.max() <= 9
        assert per_row.min() >= 5  # no sense codon is that isolated

    def test_known_pair_counts(self):
        # Totals computed independently from first principles for the
        # universal code: 526 ordered single-nucleotide sense pairs.
        table = classification_table(UNIVERSAL)
        counts = {kind: table.count(kind) for kind in PairKind}
        assert counts[PairKind.SYN_TRANSITION] == 62
        assert counts[PairKind.SYN_TRANSVERSION] == 72
        assert counts[PairKind.NONSYN_TRANSITION] == 116
        assert counts[PairKind.NONSYN_TRANSVERSION] == 276
        total_single = sum(
            counts[k] for k in PairKind if k is not PairKind.MULTIPLE
        )
        assert total_single == 526
        assert counts[PairKind.MULTIPLE] == 61 * 60 - total_single

    def test_cached_per_code(self):
        assert classification_table(UNIVERSAL) is classification_table(UNIVERSAL)

    @pytest.mark.parametrize("code", [UNIVERSAL, VERTEBRATE_MITOCHONDRIAL], ids=lambda c: c.name)
    def test_masks_match_classify_pair(self, code):
        # The broadcast table against the per-pair classifier, pair for pair.
        codons = code.sense_codons
        n = len(codons)
        single = np.zeros((n, n), dtype=bool)
        transition = np.zeros((n, n), dtype=bool)
        synonymous = np.zeros((n, n), dtype=bool)
        for i, ci in enumerate(codons):
            for j, cj in enumerate(codons):
                if i == j:
                    continue
                cls = classify_pair(ci, cj, code)
                if cls.kind is PairKind.MULTIPLE:
                    continue
                single[i, j] = True
                transition[i, j] = cls.transition
                synonymous[i, j] = cls.synonymous
        table = classification_table(code)
        assert np.array_equal(table.single, single)
        assert np.array_equal(table.transition, transition)
        assert np.array_equal(table.synonymous, synonymous)
