"""M0, and the parameter contract every model shares."""

import numpy as np
import pytest

from repro.models.branch_site import BranchSiteModelA
from repro.models.bsrel import BSRELModel
from repro.models.m0 import M0Model

#: One class, model A's four classes under each hypothesis, and BS-REL's six.
ALL_MODELS = [
    pytest.param(M0Model(), id="M0 (one-ratio)"),
    pytest.param(BranchSiteModelA(fix_omega2=True), id="model A H0"),
    pytest.param(BranchSiteModelA(fix_omega2=False), id="model A H1"),
    pytest.param(BSRELModel(3), id="BS-REL 6-class"),
]


class TestM0:
    def test_single_class(self):
        m = M0Model()
        classes = m.site_classes({"kappa": 2.0, "omega": 0.7})
        assert len(classes) == 1
        assert classes[0].proportion == 1.0
        assert classes[0].omega_background == classes[0].omega_foreground == 0.7

    def test_roundtrip(self):
        M0Model().check_roundtrip({"kappa": 3.3, "omega": 1.8})

    def test_omega_above_one_allowed(self):
        v = M0Model().unpack(np.array([0.5, 2.0]))
        assert v["omega"] > 1.0


@pytest.mark.parametrize("model", ALL_MODELS)
class TestCommonContract:
    def test_default_start_roundtrips(self, model):
        model.check_roundtrip(model.default_start())

    def test_seeded_start_reproducible(self, model):
        assert model.default_start(rng=7) == model.default_start(rng=7)

    def test_proportions_sum_to_one(self, model):
        assert model.proportions(model.default_start()).sum() == pytest.approx(1.0)

    def test_pack_length_matches_params(self, model):
        assert model.pack(model.default_start()).shape == (model.n_params,)
