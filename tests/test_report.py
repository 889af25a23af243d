"""Report formatting."""

import numpy as np
import pytest

from repro.io.report import format_fit_block, format_mapping_block, format_report
from repro.optimize.lrt import likelihood_ratio_test
from repro.optimize.ml import BranchSiteTest, FitResult


def _fit(model_name, lnl, values, n_branches=7, converged=True):
    return FitResult(
        model_name=model_name,
        engine_name="slim",
        lnl=lnl,
        values=values,
        branch_lengths=np.full(n_branches, 0.1),
        n_iterations=12,
        n_evaluations=150,
        runtime_seconds=1.25,
        converged=converged,
        message="gradient norm small",
    )


@pytest.fixture
def test_obj():
    h0 = _fit(
        "branch-site model A (H0, omega2=1)",
        -1010.0,
        {"kappa": 2.0, "omega0": 0.3, "p0": 0.5, "p1": 0.3},
    )
    h1 = _fit(
        "branch-site model A (H1)",
        -1003.0,
        {"kappa": 2.0, "omega0": 0.3, "omega2": 3.4, "p0": 0.5, "p1": 0.3},
    )
    return BranchSiteTest(h0=h0, h1=h1, lrt=likelihood_ratio_test(-1010.0, -1003.0))


class TestFitBlock:
    def test_contains_parameters_and_lnl(self, test_obj):
        block = format_fit_block(test_obj.h1)
        assert "lnL = -1003.000000" in block
        assert "omega2" in block
        assert "12 iterations" in block

    def test_class_table_proportions(self, test_obj):
        block = format_fit_block(test_obj.h1)
        assert "site class" in block
        assert "2a" in block and "2b" in block

    def test_gradient_norm_on_optimizer_line(self, test_obj):
        fit = test_obj.h1
        assert "|gradient|" not in format_fit_block(fit)  # unknown: left out
        fit.grad_norm = 3.25e-5
        text = format_fit_block(fit)
        assert "optimizer: 12 iterations, 150 evaluations, 1.25 s, |gradient| = 3.25e-05" in text

    def test_unconverged_flagged(self):
        fit = _fit("m", -1.0, {"kappa": 2.0, "omega0": 0.3, "p0": 0.5, "p1": 0.3}, converged=False)
        assert "NOT CONVERGED" in format_fit_block(fit)

    def test_tree_included_when_given(self, test_obj):
        from repro.trees.newick import parse_newick

        tree = parse_newick("((A:1,B:1):1 #1,(C:1,D:1):1,E:1);")
        block = format_fit_block(test_obj.h0, tree)
        assert "#1" in block


class TestFullReport:
    def test_sections_present(self, test_obj):
        text = format_report(test_obj, dataset_name="demo")
        assert "Null hypothesis" in text
        assert "Alternative hypothesis" in text
        assert "Likelihood ratio test" in text
        assert "demo" in text
        assert "2*(lnL1 - lnL0) = 14.000000" in text

    def test_significance_stated(self, test_obj):
        assert "SUPPORTED" in format_report(test_obj)

    def test_not_significant(self):
        h0 = _fit("h0", -1000.0, {"kappa": 2.0, "omega0": 0.3, "p0": 0.5, "p1": 0.3})
        h1 = _fit("h1", -999.9, {"kappa": 2.0, "omega0": 0.3, "omega2": 1.1, "p0": 0.5, "p1": 0.3})
        test = BranchSiteTest(h0=h0, h1=h1, lrt=likelihood_ratio_test(-1000.0, -999.9))
        assert "not supported" in format_report(test)

    def test_sites_section(self, test_obj):
        from repro.optimize.beb import SiteProbabilities

        probs = np.array([0.2, 0.96, 0.999])
        sites = SiteProbabilities(
            probabilities=probs, class_probabilities=np.tile(probs, (4, 1)) / 4, method="BEB"
        )
        text = format_report(test_obj, sites=sites)
        assert "BEB" in text
        assert "2" in text and "3" in text  # 1-based selected sites
        assert "**" in text  # >0.99 marker

    def test_sites_none_selected(self, test_obj):
        from repro.optimize.beb import SiteProbabilities

        sites = SiteProbabilities(
            probabilities=np.array([0.1]), class_probabilities=np.full((4, 1), 0.025), method="NEB"
        )
        assert "no sites with posterior" in format_report(test_obj, sites=sites)


def test_mapping_block_ranks_every_foreground_site():
    # Exact means are positive at every site: the top 10 are ranked out
    # of the alignment's sites, and the header says so.
    nonsyn = [0.5, 0.1, 2.0, 0.3] + [0.01] * 10
    mapping = {"branches": [], "foreground_sites": {"nonsyn": nonsyn, "syn": [0.2] * 14}}
    lines = format_mapping_block(mapping).splitlines()
    assert lines[1] == "foreground sites by expected non-synonymous events (top 10 of 14 sites):"
    assert [line.split()[1] for line in lines[2:5]] == ["3", "1", "4"]
    assert len(lines) == 2 + 10
