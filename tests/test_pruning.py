"""Felsenstein pruning: correctness against direct enumeration, scaling.

Every case runs the production level-order driver; the scaling cases
also pin it bit for bit to the per-branch reference recursion.
"""

import numpy as np
import pytest

from repro.alignment.msa import CodonAlignment
from repro.alignment.patterns import compress_patterns
from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import decompose
from repro.core.expm import transition_matrix_syrk
from repro.likelihood.pruning import build_leaf_clvs
from repro.trees.newick import parse_newick
from tests.oracles import prune_levels, prune_reference


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(2)
    pi = rng.dirichlet(np.full(61, 8.0))
    matrix = build_rate_matrix(2.0, 0.5, pi)
    decomp = decompose(matrix)
    return pi, decomp


def _p_factory(decomp):
    def factory(t, foreground):
        return transition_matrix_syrk(decomp, t, clip_negative=False)

    return factory


def _matmul(op, clv):
    return op @ clv


class TestAgainstDirectEnumeration:
    def test_three_taxon_star(self, setup):
        pi, decomp = setup
        tree = parse_newick("(A:0.1,B:0.25,C:0.07);")
        aln = CodonAlignment.from_sequences(["A", "B", "C"], ["ATGTTT", "ATGCCC", "CCCTTT"])
        pat = compress_patterns(aln)
        leaf_clvs = build_leaf_clvs(pat.alignment)
        result = prune_levels(
            tree.branch_table(), len(tree.nodes), leaf_clvs, _p_factory(decomp), _matmul
        )
        lnl = result.site_log_likelihoods(pi)
        # Direct: L_s = sum_x pi_x prod_leaf P(t_leaf)[x, state].
        ps = {n.name: transition_matrix_syrk(decomp, n.length) for n in tree.leaves}
        states = pat.alignment.states
        for s in range(pat.n_patterns):
            direct = np.sum(
                pi
                * ps["A"][:, states[0, s]]
                * ps["B"][:, states[1, s]]
                * ps["C"][:, states[2, s]]
            )
            assert lnl[s] == pytest.approx(np.log(direct), abs=1e-10)

    def test_missing_data_marginalises(self, setup):
        pi, decomp = setup
        tree = parse_newick("(A:0.1,B:0.25,C:0.07);")
        aln = CodonAlignment.from_sequences(["A", "B", "C"], ["ATG", "CCC", "---"])
        pat = compress_patterns(aln)
        res = prune_levels(
            tree.branch_table(), len(tree.nodes), build_leaf_clvs(pat.alignment),
            _p_factory(decomp), _matmul,
        )
        lnl_with_missing = res.site_log_likelihoods(pi)[0]
        # Dropping taxon C entirely must give the same likelihood.
        tree2 = parse_newick("(A:0.1,B:0.25);")
        aln2 = CodonAlignment.from_sequences(["A", "B"], ["ATG", "CCC"])
        pat2 = compress_patterns(aln2)
        res2 = prune_levels(
            tree2.branch_table(), len(tree2.nodes), build_leaf_clvs(pat2.alignment),
            _p_factory(decomp), _matmul,
        )
        lnl_without = res2.site_log_likelihoods(pi)[0]
        assert lnl_with_missing == pytest.approx(lnl_without, abs=1e-10)

    def test_pulley_principle(self, setup):
        # Reversibility: sliding the root along a branch leaves lnL unchanged.
        pi, decomp = setup
        aln = CodonAlignment.from_sequences(["A", "B", "C"], ["ATGTTT", "CCCTTT", "ATGAAA"])
        pat = compress_patterns(aln)
        lnls = []
        for newick in [
            "((A:0.1,B:0.2):0.05,C:0.3);",
            "((A:0.1,B:0.2):0.15,C:0.2);",
            "(A:0.1,B:0.2,C:0.35);",
        ]:
            tree = parse_newick(newick)
            order = [aln.row(n) for n in tree.leaf_names()]
            sub = aln.subset_taxa([aln.names[i] for i in order])
            res = prune_levels(
                tree.branch_table(), len(tree.nodes), build_leaf_clvs(compress_patterns(sub).alignment),
                _p_factory(decomp), _matmul,
            )
            lnls.append(res.site_log_likelihoods(pi).sum())
        assert lnls[0] == pytest.approx(lnls[1], abs=1e-9)
        assert lnls[0] == pytest.approx(lnls[2], abs=1e-9)


class TestScaling:
    def test_scalers_triggered_on_deep_trees(self, setup):
        pi, decomp = setup
        # Ladder of many short branches forces CLV magnitudes down
        # (~0.92 decay per level: a 120-level ladder bottoms out near
        # 8e-5, so a 1e-4 threshold exercises the rescaling path).
        tree = parse_newick("(" + _caterpillar(120) + ");")
        seqs = {name: "ATG" for name in tree.leaf_names()}
        aln = CodonAlignment.from_sequences(list(seqs), list(seqs.values()))
        pat = compress_patterns(aln.subset_taxa(tree.leaf_names()))
        res = prune_levels(
            tree.branch_table(), len(tree.nodes), build_leaf_clvs(pat.alignment),
            _p_factory(decomp), _matmul, scale_threshold=1e-4,
        )
        assert np.any(res.log_scalers < 0)
        assert np.all(np.isfinite(res.site_log_likelihoods(pi)))
        ref = prune_reference(
            tree.branch_table(), len(tree.nodes), build_leaf_clvs(pat.alignment),
            _p_factory(decomp), _matmul, scale_threshold=1e-4,
        )
        np.testing.assert_array_equal(res.root_clv, ref.root_clv)
        np.testing.assert_array_equal(res.log_scalers, ref.log_scalers)

    def test_scaling_does_not_change_likelihood(self, setup):
        pi, decomp = setup
        tree = parse_newick(f"({_caterpillar(30)});")
        aln = CodonAlignment.from_sequences(
            tree.leaf_names(), ["ATGTTT"] * tree.n_leaves
        )
        pat = compress_patterns(aln)
        clvs = build_leaf_clvs(pat.alignment)
        always = prune_levels(
            tree.branch_table(), len(tree.nodes), clvs, _p_factory(decomp), _matmul,
            scale_threshold=1.0,  # rescale at every node
        )
        never = prune_levels(
            tree.branch_table(), len(tree.nodes), clvs, _p_factory(decomp), _matmul,
            scale_threshold=0.0,  # never rescale
        )
        assert np.allclose(
            always.site_log_likelihoods(pi), never.site_log_likelihoods(pi), atol=1e-9
        )


def _caterpillar(n_leaves: int) -> str:
    """Ladder topology newick fragment with n_leaves taxa."""
    core = "L1:0.05,L2:0.05"
    for k in range(3, n_leaves + 1):
        core = f"({core}):0.05,L{k}:0.05"
    return core


class TestValidation:
    def test_empty_branch_table(self, setup):
        _, decomp = setup
        with pytest.raises(ValueError, match="empty"):
            prune_levels([], 1, [np.ones((61, 1))], _p_factory(decomp), _matmul)

    def test_non_postordered_table_detected(self, setup):
        _, decomp = setup
        # Parent (3) consumed before its child (2) is computed.
        rows = [(2, 3, 0.1, False), (0, 2, 0.1, False), (1, 2, 0.1, False), (3, 4, 0.1, False)]
        clvs = [np.ones((61, 1)), np.ones((61, 1))]
        with pytest.raises(ValueError, match="post-ordered"):
            prune_levels(rows, 5, clvs, _p_factory(decomp), _matmul)
