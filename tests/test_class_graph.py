"""The site-class graph: validation, views, and the plan that derives sharing."""

import math

import numpy as np
import pytest

from repro.models.base import SiteClass
from repro.models.branch_site import BranchSiteModelA
from repro.models.class_graph import ClassPlan, SiteClassGraph


def _classes(*specs):
    return [SiteClass(label, p, bg, fg, positive=pos)
            for label, p, bg, fg, pos in specs]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SiteClassGraph.from_classes([])

    def test_duplicate_labels_rejected(self):
        classes = _classes(("x", 0.5, 0.1, 0.1, False), ("x", 0.5, 0.2, 0.2, False))
        with pytest.raises(ValueError, match="duplicate"):
            SiteClassGraph.from_classes(classes)

    def test_negative_weight_rejected(self):
        # SiteClass itself rejects negatives, so feed the graph directly.
        bad = SiteClass.__new__(SiteClass)
        object.__setattr__(bad, "label", "x")
        object.__setattr__(bad, "proportion", -0.25)
        object.__setattr__(bad, "omega_background", 0.1)
        object.__setattr__(bad, "omega_foreground", 0.1)
        object.__setattr__(bad, "positive", False)
        good = SiteClass("y", 1.0, 0.2, 0.2)
        with pytest.raises(ValueError, match="not a weight"):
            SiteClassGraph.from_classes([bad, good])

    def test_nan_weight_rejected(self):
        bad = SiteClass.__new__(SiteClass)
        object.__setattr__(bad, "label", "x")
        object.__setattr__(bad, "proportion", float("nan"))
        object.__setattr__(bad, "omega_background", 0.1)
        object.__setattr__(bad, "omega_foreground", 0.1)
        object.__setattr__(bad, "positive", False)
        good = SiteClass("y", 1.0, 0.2, 0.2)
        with pytest.raises(ValueError, match="not a weight"):
            SiteClassGraph.from_classes([bad, good])

    def test_sum_must_be_one(self):
        classes = _classes(("x", 0.5, 0.1, 0.1, False), ("y", 0.4, 0.2, 0.2, False))
        with pytest.raises(ValueError, match="sum to"):
            SiteClassGraph.from_classes(classes)

    def test_zero_weight_classes_allowed(self):
        classes = _classes(("x", 1.0, 0.1, 0.1, False), ("y", 0.0, 0.2, 0.2, False))
        graph = SiteClassGraph.from_classes(classes)
        assert graph.n_classes == 2


class TestDerivedEdges:
    """The sharing :meth:`SiteClassGraph.plan` derives when no class is skipped."""

    def test_model_a_reproduces_historical_pairs(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        assert graph.labels == ("0", "1", "2a", "2b")
        # 0↔2a and 1↔2b share backgrounds; under H1 (ω2 ≠ 1) neither is full.
        assert graph.plan(skip_zero=False) == [
            ClassPlan(0, "populate"),
            ClassPlan(1, "populate"),
            ClassPlan(2, "derive", base=0, full_share=False),
            ClassPlan(3, "derive", base=1, full_share=False),
        ]

    def test_model_a_h0_full_share_for_2b(self, h0_model, bsm_values):
        values = {k: v for k, v in bsm_values.items() if k != "omega2"}
        plans = h0_model.site_class_graph(values).plan(skip_zero=False)
        # ω2 = 1 makes class 2b's foreground match class 1's: a full share.
        assert plans[3] == ClassPlan(3, "derive", base=1, full_share=True)
        assert plans[2] == ClassPlan(2, "derive", base=0, full_share=False)

    def test_site_models_fully_share_nothing_foreground(self):
        # Equal background and foreground ω per class, distinct across
        # classes (the M1a/M2a shape): no class derives from another.
        classes = _classes(
            ("0", 0.6, 0.2, 0.2, False),
            ("1", 0.3, 1.0, 1.0, False),
            ("2", 0.1, 3.0, 3.0, True),
        )
        plans = SiteClassGraph.from_classes(classes).plan(skip_zero=False)
        assert [p.mode for p in plans] == ["populate"] * 3
        assert all(p.base is None for p in plans)

    def test_edge_targets_first_matching_class(self):
        classes = _classes(
            ("a", 0.25, 0.3, 0.3, False),
            ("b", 0.25, 0.3, 2.0, True),
            ("c", 0.25, 0.3, 2.0, True),
            ("d", 0.25, 0.7, 0.7, False),
        )
        plans = SiteClassGraph.from_classes(classes).plan(skip_zero=False)
        assert plans[1] == ClassPlan(1, "derive", base=0, full_share=False)
        # c derives from the *first* class carrying ω_bg = 0.3, not from b.
        assert plans[2] == ClassPlan(2, "derive", base=0, full_share=False)
        assert plans[3] == ClassPlan(3, "populate")


class TestViews:
    def test_labels_proportions_index(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        assert math.isclose(float(graph.proportions.sum()), 1.0)
        classes = h1_model.site_classes(bsm_values)
        assert graph.labels == tuple(c.label for c in classes)
        np.testing.assert_array_equal(graph.proportions, [c.proportion for c in classes])

    def test_positive_classes(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        assert graph.positive_indices == (2, 3)
        assert graph.positive_labels == ("2a", "2b")

    def test_distinct_omegas(self, h1_model, bsm_values):
        omegas = {
            omega
            for c in h1_model.site_classes(bsm_values)
            for omega in (c.omega_background, c.omega_foreground)
        }
        assert sorted(omegas) == [0.3, 1.0, 4.0]

    def test_iteration_and_len(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        assert len(graph) == 4
        assert [n.label for n in graph] == ["0", "1", "2a", "2b"]

    def test_repr_names_classes(self, h1_model, bsm_values):
        text = repr(h1_model.site_class_graph(bsm_values))
        assert text == "SiteClassGraph(4 classes: ['0', '1', '2a', '2b'])"


class TestPlanning:
    def test_full_evaluation_derives_shared_classes(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        plans = graph.plan()
        assert [p.mode for p in plans] == ["populate", "populate", "derive", "derive"]
        assert plans[2].base == 0 and plans[3].base == 1
        assert not plans[2].full_share

    def test_h0_full_share_derives(self, h0_model, bsm_values):
        values = {k: v for k, v in bsm_values.items() if k != "omega2"}
        graph = h0_model.site_class_graph(values)
        plans = graph.plan()
        # 2b's share is full under H0: it re-prunes nothing.
        assert plans[3] == ClassPlan(3, "derive", base=1, full_share=True)
        assert plans[2].mode == "derive" and not plans[2].full_share

    def test_skip_zero_reanchors_sharing(self):
        # When the would-be base has zero weight and is skipped, the
        # sharing chain re-anchors on the first class that actually runs.
        classes = _classes(
            ("a", 0.0, 0.3, 0.3, False),
            ("b", 0.6, 0.3, 2.0, True),
            ("c", 0.4, 0.3, 2.0, True),
        )
        graph = SiteClassGraph.from_classes(classes)
        plans = graph.plan(skip_zero=True)
        assert plans[0] == ClassPlan(0, "skip")
        assert plans[1].mode == "populate"
        assert plans[2] == ClassPlan(2, "derive", base=1, full_share=True)

    def test_skipped_class_is_no_base(self):
        classes = _classes(
            ("a", 0.0, 0.3, 0.3, False),
            ("b", 1.0, 0.3, 2.0, True),
        )
        graph = SiteClassGraph.from_classes(classes)
        # With every class run, b derives from a...
        assert graph.plan()[1] == ClassPlan(1, "derive", base=0, full_share=False)
        # ...but with a skipped, b must populate.
        plans = graph.plan(skip_zero=True)
        assert plans[1].mode == "populate"


class TestSiteClassValidation:
    def test_negative_proportion_raises(self):
        with pytest.raises(ValueError):
            SiteClass("x", -0.1, 0.5, 0.5)

    def test_nan_proportion_raises(self):
        with pytest.raises(ValueError):
            SiteClass("x", float("nan"), 0.5, 0.5)

    def test_nonfinite_omega_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            SiteClass("x", 0.5, float("inf"), 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            SiteClass("x", 0.5, 0.5, float("nan"))

    def test_model_site_class_graph_matches_site_classes(self, h1_model, bsm_values):
        graph = h1_model.site_class_graph(bsm_values)
        classes = h1_model.site_classes(bsm_values)
        assert list(graph.nodes) == classes


class TestMixtureWeightGuards:
    def test_mixture_rejects_negative_weights(self):
        from repro.likelihood.mixture import mixture_log_likelihood

        class_lnl = np.zeros((2, 3))
        with pytest.raises(ValueError, match="weight"):
            mixture_log_likelihood(
                [], None, np.array([1.5, -0.5]), np.ones(3), class_lnl=class_lnl
            )

    def test_mixture_rejects_nan_weights(self):
        from repro.likelihood.mixture import mixture_log_likelihood

        class_lnl = np.zeros((2, 3))
        with pytest.raises(ValueError, match="weight"):
            mixture_log_likelihood(
                [], None, np.array([float("nan"), 1.0]), np.ones(3), class_lnl=class_lnl
            )

    def test_posteriors_reject_bad_weights(self):
        from repro.likelihood.mixture import class_posteriors

        class_lnl = np.zeros((2, 3))
        with pytest.raises(ValueError, match="weight"):
            class_posteriors(class_lnl, np.array([-0.2, 1.2]))
