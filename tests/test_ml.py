"""ML fit driver: packing, iteration counting, H0+H1 orchestration."""

import numpy as np
import pytest

from repro.core.engine import make_engine
from repro.models.m0 import M0Model
from repro.optimize.ml import fit_branch_site_test, fit_model


@pytest.fixture(scope="module")
def m0_bound(small_tree, small_sim):
    return make_engine("slim").bind(small_tree, small_sim.alignment, M0Model())


# Session fixtures come from conftest; redeclare at module scope for reuse.
@pytest.fixture(scope="module")
def small_tree():
    from repro.trees.newick import parse_newick

    return parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")


@pytest.fixture(scope="module")
def small_sim(small_tree):
    from repro.alignment.simulate import simulate_alignment
    from repro.models.branch_site import BranchSiteModelA

    values = {"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
    return simulate_alignment(small_tree, BranchSiteModelA(), values, n_codons=100, seed=7)


class TestFitModel:
    def test_improves_from_start(self, m0_bound):
        start = {"kappa": 1.0, "omega": 1.0}
        lnl_start = m0_bound.log_likelihood(start)
        fit = fit_model(m0_bound, start_values=start, max_iterations=15)
        assert fit.lnl > lnl_start

    def test_iteration_budget(self, m0_bound):
        fit = fit_model(m0_bound, max_iterations=3, seed=1)
        assert fit.n_iterations <= 3

    def test_seed_reproducible(self, m0_bound):
        a = fit_model(m0_bound, max_iterations=4, seed=9)
        b = fit_model(m0_bound, max_iterations=4, seed=9)
        assert a.lnl == b.lnl
        assert a.values == b.values

    @pytest.mark.parametrize(
        "make_lengths",
        [
            lambda n: np.full(2, 0.1),
            lambda n: np.full(n + 4, 0.1),
            lambda n: np.where(np.arange(n) == 1, np.nan, 0.1),
        ],
        ids=["too-short", "too-long", "nan"],
    )
    def test_start_lengths_checked_before_any_evaluation(
        self, make_lengths, small_tree, small_sim
    ):
        bound = make_engine("slim").bind(small_tree, small_sim.alignment, M0Model())
        with pytest.raises(ValueError, match="start_lengths"):
            fit_model(bound, start_lengths=make_lengths(bound.n_branches), seed=1)
        assert bound.n_evaluations == 0

    def test_branch_lengths_optimized_by_default(self, m0_bound, small_tree):
        fit = fit_model(m0_bound, max_iterations=10, seed=1)
        assert fit.branch_lengths.shape == (small_tree.n_branches,)
        assert not np.allclose(fit.branch_lengths, small_tree.branch_lengths())

    def test_lbfgsb_backend_agrees(self, m0_bound):
        # scipy's L-BFGS-B on the same packed objective, from the same
        # seeded start, must reach the same optimum as our BFGS.
        import scipy.optimize

        from repro.optimize.ml import _pack_full, _unpack_full
        from repro.utils.rng import make_rng

        ours = fit_model(m0_bound, seed=2, max_iterations=100)
        model = m0_bound.model
        base = np.asarray(m0_bound.branch_lengths, dtype=float)
        lengths = np.where(base > 0, base, 0.1)
        x0 = _pack_full(model, model.default_start(make_rng(2)), lengths)

        def objective(x):
            values, ts = _unpack_full(model, x)
            try:
                return -m0_bound.log_likelihood(values, ts)
            except (ValueError, FloatingPointError):
                return np.inf

        scipys = scipy.optimize.minimize(
            objective, x0, method="L-BFGS-B",
            options={"maxiter": 100, "ftol": 1e-9, "gtol": 1e-4},
        )
        assert ours.lnl == pytest.approx(-scipys.fun, abs=0.05)

    def test_summary_text(self, m0_bound):
        fit = fit_model(m0_bound, max_iterations=2, seed=1)
        text = fit.summary()
        assert "lnL" in text and "iterations" in text and "kappa" in text


class TestBranchSiteTest:
    @pytest.fixture(scope="class")
    def test_result(self, small_tree, small_sim):
        engine = make_engine("slim")
        return fit_branch_site_test(
            lambda m: engine.bind(small_tree, small_sim.alignment, m),
            seed=1,
            max_iterations=8,
        )

    def test_h0_nested_in_h1(self, test_result):
        # H0 ⊂ H1, so with a warm start lnL1 >= lnL0 (up to optimizer slack).
        assert test_result.h1.lnl >= test_result.h0.lnl - 1e-6

    def test_lrt_consistency(self, test_result):
        assert test_result.lrt.statistic == pytest.approx(
            max(0.0, 2 * (test_result.h1.lnl - test_result.h0.lnl))
        )

    def test_model_names(self, test_result):
        assert "H0" in test_result.h0.model_name
        assert "H1" in test_result.h1.model_name

    def test_combined_quantities(self, test_result):
        assert test_result.combined_iterations == (
            test_result.h0.n_iterations + test_result.h1.n_iterations
        )
        assert test_result.combined_runtime == pytest.approx(
            test_result.h0.runtime_seconds + test_result.h1.runtime_seconds
        )

    def test_summary(self, test_result):
        text = test_result.summary()
        assert "LRT" in text and "p(χ²₁)" in text

    def test_engines_start_identically(self, small_tree, small_sim):
        # The fixed-seed rule (§IV): identical seeds -> identical start
        # points -> engines' first likelihoods match to machine precision.
        from repro.models.branch_site import BranchSiteModelA

        model = BranchSiteModelA(fix_omega2=True)
        start_a = model.default_start(np.random.default_rng(5))
        start_b = model.default_start(np.random.default_rng(5))
        assert start_a == start_b
