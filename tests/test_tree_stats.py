"""The patristic distance oracle (``tests/oracles.py``) on hand-computed trees."""

import numpy as np
import pytest

from repro.trees.newick import parse_newick
from repro.trees.simulate import simulate_yule_tree
from tests.oracles import patristic_distance_matrix


class TestPatristicMatrix:
    def test_hand_computed_triplet(self):
        tree = parse_newick("(A:0.1,B:0.2,C:0.4);")
        dist = patristic_distance_matrix(tree)
        assert dist[0, 1] == pytest.approx(0.3)
        assert dist[0, 2] == pytest.approx(0.5)
        assert dist[1, 2] == pytest.approx(0.6)

    def test_nested(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3,D:0.4);")
        dist = patristic_distance_matrix(tree)
        names = tree.leaf_names()
        a, b, c, d = (names.index(x) for x in "ABCD")
        assert dist[a, b] == pytest.approx(0.3)
        assert dist[a, c] == pytest.approx(0.1 + 0.05 + 0.3)
        assert dist[b, d] == pytest.approx(0.2 + 0.05 + 0.4)

    def test_symmetric_zero_diagonal(self):
        tree = simulate_yule_tree(12, seed=3)
        dist = patristic_distance_matrix(tree)
        assert np.allclose(dist, dist.T)
        assert np.all(np.diag(dist) == 0)
        off = dist[~np.eye(12, dtype=bool)]
        assert np.all(off > 0)
