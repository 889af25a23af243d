"""BS-REL family: N-class construction and model-A bit-identity.

The acceptance bar for the site-class-graph refactor: the 4-class
branch-site model A expressed as ``bsrel:2`` must produce *exactly* the
same log-likelihood (float equality, not tolerance) as the historical
model-A path, per engine, across repeated evaluations and branch
gradients and with the recovery layer, through both the level-order
driver and the per-branch reference recursion (``tests/oracles.py``).
"""

import numpy as np
import pytest

from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.models.bsrel import BSRELModel
from repro.models.parameters import (
    simplex_pack,
    stick_break_pack,
    stick_break_unpack,
)
from repro.models.registry import resolve_model_spec

from .conftest import ENGINE_NAMES
from .oracles import nudge_operators, reference_log_likelihood

#: Model A values mapped onto the bsrel:2 parameter names.
def _bsrel2_values(bsm_values):
    return {
        "kappa": bsm_values["kappa"],
        "omega1": bsm_values["omega0"],
        "omega_fg": bsm_values["omega2"],
        "p1": bsm_values["p0"],
        "p2": bsm_values["p1"],
    }


class TestConstruction:
    def test_needs_two_base_classes(self):
        with pytest.raises(ValueError, match="at least 2"):
            BSRELModel(1)

    def test_param_names_h1(self):
        model = BSRELModel(3)
        assert model.param_names == (
            "kappa", "omega1", "omega2", "omega_fg", "p1", "p2", "p3"
        )

    def test_param_names_h0(self):
        model = BSRELModel(3, fix_omega_fg=True)
        assert "omega_fg" not in model.param_names
        assert model.hypothesis == "H0"

    def test_k2_classes_equal_model_a(self, bsm_values):
        a_classes = BranchSiteModelA().site_classes(bsm_values)
        b_classes = BSRELModel(2).site_classes(_bsrel2_values(bsm_values))
        assert [c.label for c in b_classes] == ["b1", "b2", "s1", "s2"]
        for a, b in zip(a_classes, b_classes):
            assert a.proportion == b.proportion
            assert a.omega_background == b.omega_background
            assert a.omega_foreground == b.omega_foreground
            assert a.positive == b.positive

    def test_six_class_graph_edges(self):
        model = BSRELModel(3)
        values = model.default_start(None)
        graph = model.site_class_graph(values)
        assert graph.n_classes == 6
        # Every selected class aliases its base class's background pass.
        for i in range(3):
            edge = graph.edges[3 + i]
            assert edge is not None and edge.base == i and not edge.full
        assert graph.positive_labels == ("s1", "s2", "s3")

    def test_h0_last_selected_class_full_share(self):
        model = BSRELModel(3, fix_omega_fg=True)
        values = model.default_start(None)
        graph = model.site_class_graph(values)
        # sK keeps ω_fg = 1 = its neutral base's ω: a full share under H0.
        assert graph.edges[5].full
        assert not graph.edges[3].full and not graph.edges[4].full

    def test_weights_must_leave_selected_mass(self):
        model = BSRELModel(2)
        values = model.default_start(None)
        values["p1"], values["p2"] = 0.6, 0.4
        with pytest.raises(ValueError, match="must lie in"):
            model.site_classes(values)


class TestPackUnpack:
    def test_roundtrip_k3(self):
        model = BSRELModel(3)
        values = model.default_start(np.random.default_rng(5))
        again = model.unpack(model.pack(values))
        for key in model.param_names:
            assert values[key] == pytest.approx(again[key], rel=1e-12)

    def test_stick_break_k2_matches_simplex(self):
        # K=2 stick-breaking must reproduce simplex_pack bit-for-bit —
        # that arithmetical identity is what keeps model A's packed
        # coordinates unchanged through the generalisation.
        assert stick_break_pack([0.5, 0.3]) == list(simplex_pack(0.5, 0.3))

    def test_stick_break_roundtrip(self):
        weights = [0.3, 0.25, 0.2, 0.1]
        out = stick_break_unpack(stick_break_pack(weights))
        assert out == pytest.approx(weights, rel=1e-12)

    def test_null_projection(self):
        model = BSRELModel(3)
        values = model.default_start(None)
        null_values = model.to_null_values(values)
        assert "omega_fg" not in null_values
        assert model.null_model().validate(null_values)


class TestRegistry:
    def test_default_is_model_a(self):
        spec = resolve_model_spec(None)
        h0, h1 = spec.pair()
        assert isinstance(h0, BranchSiteModelA) and h0.fix_omega2
        assert isinstance(h1, BranchSiteModelA) and not h1.fix_omega2

    @pytest.mark.parametrize("alias", ["branch-site-A", "bsA", "A", "model-a"])
    def test_model_a_aliases(self, alias):
        assert resolve_model_spec(alias).spec == "branch-site-A"

    def test_bsrel_spec(self):
        spec = resolve_model_spec("bsrel:3")
        h0, h1 = spec.pair()
        assert isinstance(h0, BSRELModel) and h0.fix_omega_fg
        assert h1.n_base_classes == 3 and not h1.fix_omega_fg

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            resolve_model_spec("bsrel:1")
        with pytest.raises(ValueError):
            resolve_model_spec("bsrel:x")
        with pytest.raises(ValueError):
            resolve_model_spec("m8")


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
class TestModelABitIdentity:
    """bsrel:2 ≡ model A: exact float lnL equality, every evaluation mode."""

    def _bind_pair(self, engine_name, small_tree, small_sim, **bind_kwargs):
        engine_a = make_engine(engine_name)
        engine_b = make_engine(engine_name)
        bound_a = engine_a.bind(
            small_tree, small_sim.alignment, BranchSiteModelA(), **bind_kwargs
        )
        bound_b = engine_b.bind(
            small_tree, small_sim.alignment, BSRELModel(2), **bind_kwargs
        )
        return bound_a, bound_b

    def test_plain(self, engine_name, small_tree, small_sim, bsm_values):
        bound_a, bound_b = self._bind_pair(engine_name, small_tree, small_sim)
        assert bound_a.log_likelihood(bsm_values) == bound_b.log_likelihood(
            _bsrel2_values(bsm_values)
        )

    def test_incremental(self, engine_name, small_tree, small_sim, bsm_values):
        # A sequence of evaluations, each followed by a branch gradient
        # that reads it through the last-point memo: lnL and gradient
        # are both exactly model A's.
        bound_a, bound_b = self._bind_pair(engine_name, small_tree, small_sim)
        lengths = np.asarray(small_tree.branch_lengths(), dtype=float)
        for scale in (1.0, 1.0, 1.1):
            lnl_a = bound_a.log_likelihood(bsm_values, lengths * scale)
            lnl_b = bound_b.log_likelihood(_bsrel2_values(bsm_values), lengths * scale)
            assert lnl_a == lnl_b
            grad_a = bound_a.branch_gradient(bsm_values, lengths * scale)
            grad_b = bound_b.branch_gradient(_bsrel2_values(bsm_values), lengths * scale)
            assert grad_a[0] == grad_b[0] == lnl_a
            np.testing.assert_array_equal(grad_a[1], grad_b[1])

    @pytest.mark.parametrize("batched", [True, False])
    def test_batched_modes(self, engine_name, batched, small_tree, small_sim, bsm_values):
        # True: the level-order driver; False: the per-branch oracle.
        bound_a, bound_b = self._bind_pair(engine_name, small_tree, small_sim)
        evaluate = (
            (lambda bound, values: bound.log_likelihood(values))
            if batched
            else reference_log_likelihood
        )
        assert evaluate(bound_a, bsm_values) == evaluate(
            bound_b, _bsrel2_values(bsm_values)
        )

    def test_recovery_layer(self, engine_name, small_tree, small_sim, bsm_values, monkeypatch):
        # Every operator drifts, so the guards act on each build.
        nudge_operators(monkeypatch)
        bound_a, bound_b = self._bind_pair(engine_name, small_tree, small_sim)
        assert bound_a.log_likelihood(bsm_values) == bound_b.log_likelihood(
            _bsrel2_values(bsm_values)
        )
        assert len(bound_a.engine.events) > 0 and len(bound_b.engine.events) > 0

    def test_site_class_matrix_identical(self, engine_name, small_tree, small_sim, bsm_values):
        bound_a, bound_b = self._bind_pair(engine_name, small_tree, small_sim)
        ev_a = bound_a.class_evaluation(bsm_values)
        ev_b = bound_b.class_evaluation(_bsrel2_values(bsm_values))
        assert np.array_equal(ev_a.class_lnl, ev_b.class_lnl)
        assert np.array_equal(ev_a.proportions, ev_b.proportions)


class TestSixClassEvaluation:
    def test_batched_equals_unbatched(self, small_tree, small_sim):
        model = BSRELModel(3)
        values = model.default_start(None)
        plain = make_engine("slim-v2").bind(small_tree, small_sim.alignment, model)
        batched = make_engine("slim-v2").bind(small_tree, small_sim.alignment, model)
        assert reference_log_likelihood(plain, values) == batched.log_likelihood(values)

    def test_operator_dedupe_counters(self, small_tree, small_sim):
        model = BSRELModel(3)
        values = model.default_start(None)
        engine = make_engine("slim-v2")
        bound = engine.bind(small_tree, small_sim.alignment, model)
        bound.log_likelihood(values)
        stats = engine.cache_stats()
        assert stats["operator_builds_naive"] > stats["operator_builds"] > 0

    def test_grid_start_deterministic_and_evaluable(self, small_tree, small_sim):
        model = BSRELModel(3)
        engine = make_engine("slim")
        bound = engine.bind(small_tree, small_sim.alignment, model)
        first = model.grid_start(bound)
        second = model.grid_start(bound)
        assert first == second
        assert np.isfinite(bound.log_likelihood(first))


class TestFitDriver:
    def test_fit_with_bsrel_pair(self, small_tree, small_sim):
        from repro.optimize.ml import fit_branch_site_test

        spec = resolve_model_spec("bsrel:2")
        engine = make_engine("slim")
        test = fit_branch_site_test(
            lambda model: engine.bind(small_tree, small_sim.alignment, model),
            seed=1,
            max_iterations=4,
            models=spec.pair(),
        )
        assert "BS-REL" in test.h0.model_name and "BS-REL" in test.h1.model_name
        assert np.isfinite(test.h0.lnl) and np.isfinite(test.h1.lnl)
        assert test.h1.lnl >= test.h0.lnl - 1e-6  # H0 ⊂ H1

    def test_grid_search_flag_requires_hook(self, small_tree, small_sim):
        from repro.optimize.ml import fit_branch_site_test

        engine = make_engine("slim")
        with pytest.raises(ValueError, match="grid_search"):
            fit_branch_site_test(
                lambda model: engine.bind(small_tree, small_sim.alignment, model),
                seed=1,
                max_iterations=2,
                grid_search=True,  # model A has no grid_start hook
            )
