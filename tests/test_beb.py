"""NEB/BEB positively-selected-site identification."""

import numpy as np
import pytest

from repro.alignment.simulate import simulate_alignment
from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.optimize.beb import beb_site_probabilities, neb_site_probabilities
from repro.trees.newick import parse_newick


@pytest.fixture(scope="module")
def strong_selection_problem():
    """A dataset with unmistakable positive selection on the fg branch."""
    tree = parse_newick("((A:0.3,B:0.3):0.4 #1,(C:0.3,D:0.3):0.1,E:0.3);")
    values = {"kappa": 2.0, "omega0": 0.05, "omega2": 8.0, "p0": 0.6, "p1": 0.2}
    sim = simulate_alignment(tree, BranchSiteModelA(), values, n_codons=150, seed=11)
    bound = make_engine("slim").bind(tree, sim.alignment, BranchSiteModelA())
    return bound, values, sim


class TestNEB:
    def test_shapes(self, strong_selection_problem):
        bound, values, sim = strong_selection_problem
        sites = neb_site_probabilities(bound, values)
        assert sites.method == "NEB"
        assert sites.probabilities.shape == (sim.alignment.n_codons,)
        assert sites.class_probabilities.shape == (4, sim.alignment.n_codons)

    def test_probabilities_valid(self, strong_selection_problem):
        bound, values, _ = strong_selection_problem
        sites = neb_site_probabilities(bound, values)
        assert np.all(sites.probabilities >= 0)
        assert np.all(sites.probabilities <= 1 + 1e-12)
        assert np.allclose(sites.class_probabilities.sum(axis=0), 1.0)

    def test_enriches_true_positive_sites(self, strong_selection_problem):
        # Sites truly in classes 2a/2b should have higher mean posterior
        # than background sites.
        bound, values, sim = strong_selection_problem
        sites = neb_site_probabilities(bound, values)
        truth = sim.site_classes >= 2
        assert truth.any() and (~truth).any()
        assert sites.probabilities[truth].mean() > sites.probabilities[~truth].mean() + 0.15

    def test_selected_sites_threshold(self, strong_selection_problem):
        bound, values, _ = strong_selection_problem
        sites = neb_site_probabilities(bound, values)
        strict = set(sites.selected_sites(0.99))
        loose = set(sites.selected_sites(0.5))
        assert strict <= loose
        assert all(1 <= s <= sites.probabilities.shape[0] for s in loose)


class TestBEB:
    def test_shapes_and_validity(self, strong_selection_problem):
        bound, values, sim = strong_selection_problem
        sites = beb_site_probabilities(
            bound, values, n_proportion_grid=4, n_omega2_grid=3
        )
        assert sites.method == "BEB"
        assert sites.probabilities.shape == (sim.alignment.n_codons,)
        assert np.all((sites.probabilities >= 0) & (sites.probabilities <= 1 + 1e-9))
        assert np.allclose(sites.class_probabilities.sum(axis=0), 1.0, atol=1e-9)

    def test_correlates_with_neb(self, strong_selection_problem):
        bound, values, _ = strong_selection_problem
        neb = neb_site_probabilities(bound, values)
        beb = beb_site_probabilities(bound, values, n_proportion_grid=4, n_omega2_grid=3)
        corr = np.corrcoef(neb.probabilities, beb.probabilities)[0, 1]
        assert corr > 0.8

    def test_h0_values_integrate_proportions_only(self, strong_selection_problem):
        bound, values, _ = strong_selection_problem
        h0_values = {k: v for k, v in values.items() if k != "omega2"}
        # Binding is the H1 model; evaluate with omega2 pinned to 1 via H0
        # model instead.
        from repro.core.engine import make_engine

        tree = bound.tree
        h0_bound = make_engine("slim").bind(
            tree, _expand(bound), BranchSiteModelA(fix_omega2=True)
        )
        sites = beb_site_probabilities(h0_bound, h0_values, n_proportion_grid=3)
        assert sites.probabilities.shape[0] == h0_bound.patterns.n_sites


class TestGridReuse:
    """BEB's ω2 grid re-evaluates only the classes ω2 moves."""

    def test_decomposes_each_omega_once_per_call(self, strong_selection_problem, monkeypatch):
        import repro.core.engine as engine_mod

        bound, values, _ = strong_selection_problem
        calls = []
        real = engine_mod.decompose_guarded

        def counting(matrix, **kwargs):
            calls.append(matrix.omega)
            return real(matrix, **kwargs)

        monkeypatch.setattr(engine_mod, "decompose_guarded", counting)
        beb_site_probabilities(bound, values, n_proportion_grid=2, n_omega2_grid=3)
        # ω0 and ω1 once, then one decomposition per ω2 grid value.
        assert len(calls) == 2 + 3 and len(set(calls)) == 5

    def test_builds_each_rate_matrix_once_per_call(self, strong_selection_problem, monkeypatch):
        import repro.models.scaling as scaling

        bound, values, _ = strong_selection_problem
        built = []
        real = scaling.build_rate_matrix

        def counting(kappa, omega, *args, **kwargs):
            built.append(omega)
            return real(kappa, omega, *args, **kwargs)

        monkeypatch.setattr(scaling, "build_rate_matrix", counting)
        beb_site_probabilities(bound, values, n_proportion_grid=2, n_omega2_grid=3)
        # The lent ω0 and ω1 matrices are not built again.
        assert len(built) == 2 + 3 and len(set(built)) == 5

    @pytest.mark.parametrize("rung", ["spectral", "pade_decompositions"])
    def test_reused_evaluation_is_bit_identical(self, strong_selection_problem, rung, request):
        if rung != "spectral":
            request.getfixturevalue(rung)
        bound, values, _ = strong_selection_problem
        tree, alignment = bound.tree, _expand(bound)
        lent = make_engine("slim").bind(tree, alignment, BranchSiteModelA())
        first = lent.class_evaluation(values)
        moved = [
            dict(values, omega2=3.5),
            dict(values, omega2=1.0),  # ω2 = ω1: classes 2a/2b tie to 1
            dict(values, kappa=2.5),  # another κ: nothing to lend
        ]
        for vals in moved:
            ev = lent.class_evaluation(vals, base=first)
            fresh = make_engine("slim").bind(tree, alignment, BranchSiteModelA())
            np.testing.assert_array_equal(ev.class_lnl, fresh.class_evaluation(vals).class_lnl)
            # The lent evaluation is complete: the gradient pass reads it.
            assert lent.gradient(vals).lnl == fresh.gradient(vals).lnl


def _expand(bound):
    """Recover a plain alignment from a bound problem (test helper)."""
    pat = bound.patterns
    states = pat.alignment.states[:, pat.site_to_pattern]
    from repro.alignment.msa import CodonAlignment

    ambiguity = {}
    for site, pattern in enumerate(pat.site_to_pattern):
        for row in range(pat.alignment.n_taxa):
            key = (row, int(pattern))
            if key in pat.alignment.ambiguity_sets:
                ambiguity[(row, site)] = pat.alignment.ambiguity_sets[key]
    return CodonAlignment(
        list(pat.alignment.names), states.copy(), ambiguity, pat.alignment.code
    )
