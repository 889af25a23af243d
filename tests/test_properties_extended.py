"""Second property-test wave: new substrates and cross-module invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trees.prune import prune_to_taxa
from repro.trees.simulate import simulate_yule_tree
from tests.oracles import patristic_distance_matrix

seeds = st.integers(min_value=0, max_value=2**31 - 1)

_slow = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestPruneProperties:
    @_slow
    @given(seed=seeds, n=st.integers(min_value=5, max_value=25),
           k=st.integers(min_value=3, max_value=10))
    def test_patristic_distances_invariant_under_pruning(self, seed, n, k):
        k = min(k, n)
        tree = simulate_yule_tree(n, seed=seed)
        rng = np.random.default_rng(seed)
        keep = list(rng.choice(tree.leaf_names(), size=k, replace=False))
        pruned = prune_to_taxa(tree, keep)

        full = patristic_distance_matrix(tree)
        names = tree.leaf_names()
        sub_expected = np.array(
            [[full[names.index(a), names.index(b)] for b in pruned.leaf_names()]
             for a in pruned.leaf_names()]
        )
        sub_actual = patristic_distance_matrix(pruned)
        assert np.allclose(sub_actual, sub_expected, atol=1e-10)

    @_slow
    @given(seed=seeds, n=st.integers(min_value=5, max_value=20))
    def test_pruned_tree_is_valid(self, seed, n):
        tree = simulate_yule_tree(n, seed=seed)
        keep = tree.leaf_names()[: max(3, n // 2)]
        pruned = prune_to_taxa(tree, keep)
        assert pruned.is_binary()
        assert pruned.n_branches == 2 * len(keep) - 3
        pruned.validate_branch_lengths()
