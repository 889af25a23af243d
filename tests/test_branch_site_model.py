"""Branch-site model A: Table I structure and parameterisation."""

import numpy as np
import pytest

from repro.alignment.msa import CodonAlignment
from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.trees.newick import parse_newick


@pytest.fixture
def h1():
    return BranchSiteModelA(fix_omega2=False)


@pytest.fixture
def h0():
    return BranchSiteModelA(fix_omega2=True)


@pytest.fixture
def values():
    return {"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.5, "p1": 0.3}


class TestParameterSets:
    def test_h1_has_five_params(self, h1):
        assert h1.param_names == ("kappa", "omega0", "omega2", "p0", "p1")

    def test_h0_has_four_params(self, h0):
        assert h0.param_names == ("kappa", "omega0", "p0", "p1")
        assert h0.hypothesis == "H0"

    def test_pack_unpack_roundtrip_h1(self, h1, values):
        h1.check_roundtrip(values)

    def test_pack_unpack_roundtrip_h0(self, h0, values):
        h0.check_roundtrip({k: values[k] for k in h0.param_names})

    def test_unpack_always_valid(self, h1):
        rng = np.random.default_rng(1)
        for _ in range(30):
            v = h1.unpack(rng.normal(scale=5, size=5))
            assert v["kappa"] > 0
            assert 0 < v["omega0"] < 1
            assert v["omega2"] > 1
            assert v["p0"] > 0 and v["p1"] > 0 and v["p0"] + v["p1"] < 1

    def test_validate_rejects_extra_and_missing(self, h1, values):
        with pytest.raises(ValueError, match="missing"):
            h1.validate({k: v for k, v in values.items() if k != "kappa"})
        with pytest.raises(ValueError, match="unexpected"):
            h1.validate({**values, "bogus": 1.0})

    def test_unpack_shape_checked(self, h1):
        with pytest.raises(ValueError, match="expected 5"):
            h1.unpack(np.zeros(4))


class TestSiteClasses:
    def test_table1_structure_h1(self, h1, values):
        classes = h1.site_classes(values)
        assert [c.label for c in classes] == ["0", "1", "2a", "2b"]
        c0, c1, c2a, c2b = classes
        # proportions per Table I
        assert c0.proportion == pytest.approx(0.5)
        assert c1.proportion == pytest.approx(0.3)
        total = 0.8
        assert c2a.proportion == pytest.approx(0.2 * 0.5 / total)
        assert c2b.proportion == pytest.approx(0.2 * 0.3 / total)
        # omegas per Table I
        assert (c0.omega_background, c0.omega_foreground) == (0.3, 0.3)
        assert (c1.omega_background, c1.omega_foreground) == (1.0, 1.0)
        assert (c2a.omega_background, c2a.omega_foreground) == (0.3, 4.0)
        assert (c2b.omega_background, c2b.omega_foreground) == (1.0, 4.0)

    def test_proportions_sum_to_one(self, h1, values):
        assert h1.proportions(values).sum() == pytest.approx(1.0)

    def test_h0_forces_omega2_one(self, h0, values):
        classes = h0.site_classes({k: values[k] for k in h0.param_names})
        assert classes[2].omega_foreground == 1.0
        assert classes[3].omega_foreground == 1.0

    def test_distinct_omegas_bounded_by_three(self, h1, h0, values):
        def distinct(model, v):
            return sorted({
                omega
                for c in model.site_classes(v)
                for omega in (c.omega_background, c.omega_foreground)
            })

        assert distinct(h1, values) == [0.3, 1.0, 4.0]
        assert distinct(h0, {k: values[k] for k in h0.param_names}) == [0.3, 1.0]

    def test_degenerate_total_rejected(self, h1, values):
        bad = dict(values, p0=0.7, p1=0.3)
        with pytest.raises(ValueError, match="p0 \\+ p1"):
            h1.site_classes(bad)


class TestStartValuesAndNull:
    def test_default_start_valid(self, h1):
        start = h1.default_start()
        classes = h1.site_classes(start)
        assert len(classes) == 4

    def test_seeded_start_reproducible(self, h1):
        assert h1.default_start(rng=42) == h1.default_start(rng=42)

    def test_seeded_start_jitters(self, h1):
        assert h1.default_start(rng=1) != h1.default_start()

    def test_seeded_start_respects_bounds(self, h1):
        for seed in range(25):
            start = h1.default_start(rng=seed)
            assert 0 < start["omega0"] < 1
            assert start["omega2"] > 1
            assert start["p0"] + start["p1"] < 1

    def test_null_model_projection(self, h1, values):
        null = h1.null_model()
        projected = h1.to_null_values(values)
        assert set(projected) == set(null.param_names)
        assert "omega2" not in projected


class TestBinding:
    def test_requires_foreground_mark(self, h1):
        # Model A distinguishes branch categories, so binding it to a
        # tree without a foreground mark is rejected up front.
        tree = parse_newick("(A:0.1,B:0.1,C:0.1);")
        aln = CodonAlignment.from_sequences(["A", "B", "C"], ["ATG"] * 3)
        with pytest.raises(ValueError, match="foreground"):
            make_engine("slim-v2").bind(tree, aln, h1)
