"""Shared mixture rate normalisation."""

import numpy as np
import pytest

import repro.models.scaling as scaling
from repro.codon.matrix import build_rate_matrix, mean_rate
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.models.scaling import build_class_matrices, mixture_scale


@pytest.fixture(scope="module")
def pi():
    rng = np.random.default_rng(9)
    return rng.dirichlet(np.full(61, 6.0))


@pytest.fixture(scope="module")
def classes(pi):
    model = BranchSiteModelA()
    values = {"kappa": 2.0, "omega0": 0.2, "omega2": 3.0, "p0": 0.5, "p1": 0.3}
    return model.site_classes(values)


class TestMixtureScale:
    def test_single_class_equals_per_matrix_scale(self, pi):
        m0 = M0Model()
        classes = m0.site_classes({"kappa": 2.0, "omega": 0.6})
        matrices = build_class_matrices(2.0, classes, pi)
        q = matrices[0.6].q
        assert mean_rate(q, pi) == pytest.approx(1.0)

    def test_background_weighted_average_is_one(self, pi, classes):
        # The weighted mean of background-class rates must be exactly 1
        # after scaling — the definition of the normalisation.
        matrices = build_class_matrices(2.0, classes, pi)
        avg = sum(
            cls.proportion * mean_rate(matrices[cls.omega_background].q, pi)
            for cls in classes
        )
        assert avg == pytest.approx(1.0)

    def test_common_factor_shared_by_all_matrices(self, pi, classes):
        matrices = build_class_matrices(2.0, classes, pi)
        scales = {m.scale for m in matrices.values()}
        assert len(scales) == 1

    def test_foreground_matrix_faster_when_omega2_large(self, pi, classes):
        matrices = build_class_matrices(2.0, classes, pi)
        assert mean_rate(matrices[3.0].q, pi) > mean_rate(matrices[0.2].q, pi)

    def test_one_matrix_per_distinct_omega(self, pi, classes):
        matrices = build_class_matrices(2.0, classes, pi)
        assert set(matrices) == {0.2, 1.0, 3.0}

    def test_scale_positive(self, pi, classes):
        assert mixture_scale(2.0, classes, pi) > 0

    def test_scale_changes_with_proportions(self, pi):
        model = BranchSiteModelA()
        v1 = {"kappa": 2.0, "omega0": 0.2, "omega2": 3.0, "p0": 0.8, "p1": 0.1}
        v2 = {"kappa": 2.0, "omega0": 0.2, "omega2": 3.0, "p0": 0.1, "p1": 0.8}
        s1 = mixture_scale(2.0, model.site_classes(v1), pi)
        s2 = mixture_scale(2.0, model.site_classes(v2), pi)
        # More conserved mass (omega0) -> lower raw mean rate.
        assert s1 < s2

    def test_matrices_bit_identical_to_scaled_build(self, pi, classes):
        # Dividing the unscaled build by the common factor is exactly
        # build_rate_matrix(scale=factor).
        factor = mixture_scale(2.0, classes, pi)
        for omega, m in build_class_matrices(2.0, classes, pi).items():
            ref = build_rate_matrix(2.0, omega, pi, scale=factor)
            assert m.q.tobytes() == ref.q.tobytes()
            assert m.s.tobytes() == ref.s.tobytes()
            assert m.scale == ref.scale and m.omega == omega and m.kappa == 2.0

    def test_one_build_per_distinct_omega(self, pi, classes, monkeypatch):
        # The unscaled builds feed mixture_scale; nothing is built twice.
        built = []

        def counting(kappa, omega, *args, **kwargs):
            built.append(omega)
            return build_rate_matrix(kappa, omega, *args, **kwargs)

        monkeypatch.setattr(scaling, "build_rate_matrix", counting)
        build_class_matrices(2.0, classes, pi)
        assert sorted(built) == [0.2, 1.0, 3.0]
