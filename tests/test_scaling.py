"""Shared mixture rate normalisation."""

import numpy as np
import pytest

import repro.models.scaling as scaling
from repro.codon.genetic_code import UNIVERSAL
from repro.codon.matrix import build_rate_matrix, mean_rate
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.models.scaling import RawRateForm, build_class_matrices, mixture_scale


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


class TestLentMatrices:
    def test_lent_omegas_come_back_as_the_lent_objects(self, pi, classes, monkeypatch):
        rates = {}
        first = build_class_matrices(2.0, classes, pi, rates=rates)
        moved = BranchSiteModelA().site_classes(
            {"kappa": 2.0, "omega0": 0.2, "omega2": 5.0, "p0": 0.5, "p1": 0.3}
        )
        built = []

        def counting(kappa, omega, *args, **kwargs):
            built.append(omega)
            return build_rate_matrix(kappa, omega, *args, **kwargs)

        monkeypatch.setattr(scaling, "build_rate_matrix", counting)
        lent = build_class_matrices(2.0, moved, pi, rates=dict(rates), lent=first)
        assert built == [5.0]
        assert lent[0.2] is first[0.2] and lent[1.0] is first[1.0]
        fresh = build_class_matrices(2.0, moved, pi)
        assert list(lent) == list(fresh)
        for omega, m in fresh.items():
            assert lent[omega].q.tobytes() == m.q.tobytes() and lent[omega].scale == m.scale

    def test_a_new_scale_builds_everything(self, pi, classes):
        rates = {}
        first = build_class_matrices(2.0, classes, pi, rates=rates)
        moved = BranchSiteModelA().site_classes(
            {"kappa": 2.0, "omega0": 0.2, "omega2": 3.0, "p0": 0.7, "p1": 0.2}
        )
        lent = build_class_matrices(2.0, moved, pi, rates=dict(rates), lent=first)
        fresh = build_class_matrices(2.0, moved, pi)
        for omega, m in fresh.items():
            assert lent[omega] is not first[omega]
            assert lent[omega].q.tobytes() == m.q.tobytes() and lent[omega].scale == m.scale


class TestRawRateForm:
    @pytest.mark.parametrize("kappa, omega", [(2.0, 0.3), (1.0, 1.0), (7.5, 0.0), (0.4, 12.0)])
    def test_matches_the_built_matrix(self, pi, kappa, omega):
        raw = build_rate_matrix(kappa, omega, pi, scale="none")
        assert RawRateForm(pi)(kappa, omega) == pytest.approx(mean_rate(raw.q, pi), rel=1e-14)

    def test_mixture_jacobian_builds_no_matrix(self, pi, monkeypatch):
        import repro.optimize.ml as ml

        model = BranchSiteModelA(fix_omega2=False)
        x = model.pack({"kappa": 2.0, "omega0": 0.2, "omega2": 3.0, "p0": 0.5, "p1": 0.3})
        width = 2 + 2 * 4 + 4

        def built(kappa, omega):
            return scaling._raw_rate(kappa, omega, pi, UNIVERSAL)

        reference = ml._mixture_jacobian(model, x, np.arange(x.size), pi, UNIVERSAL, width, built)

        def refuse(*args, **kwargs):
            raise AssertionError("rate matrix built")

        monkeypatch.setattr(scaling, "build_rate_matrix", refuse)
        jacobian = ml._mixture_jacobian(model, x, np.arange(x.size), pi, UNIVERSAL, width)
        np.testing.assert_allclose(jacobian, reference, rtol=1e-8, atol=1e-10)
