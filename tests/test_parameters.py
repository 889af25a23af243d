"""Bounded/unconstrained parameter transforms."""

import math

import numpy as np
import pytest

from repro.models.parameters import (
    IntervalTransform,
    PositiveTransform,
    simplex_pack,
    simplex_unpack,
)


class TestPositiveTransform:
    @pytest.mark.parametrize("theta", [1e-6, 0.5, 1.0, 42.0, 1e4])
    def test_roundtrip(self, theta):
        tr = PositiveTransform()
        assert tr.to_constrained(tr.to_unconstrained(theta)) == pytest.approx(theta, rel=1e-12)

    def test_lower_bound_respected(self):
        tr = PositiveTransform(lower=1.0)
        # At the clip the offset underflows to exactly the bound; any
        # representable x above the clip stays strictly inside.
        assert tr.to_constrained(-100.0) >= 1.0
        assert tr.to_constrained(-20.0) > 1.0
        assert tr.to_constrained(0.0) == pytest.approx(2.0)

    def test_below_lower_rejected(self):
        tr = PositiveTransform(lower=1.0)
        with pytest.raises(ValueError, match="lower bound"):
            tr.to_unconstrained(0.5)

    def test_overflow_clipped(self):
        tr = PositiveTransform()
        assert math.isfinite(tr.to_constrained(1e6))
        assert tr.to_constrained(-1e6) > 0.0

    def test_monotone(self):
        tr = PositiveTransform(lower=0.3)
        xs = np.linspace(-5, 5, 20)
        thetas = [tr.to_constrained(x) for x in xs]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))


class TestIntervalTransform:
    @pytest.mark.parametrize("theta", [0.001, 0.25, 0.5, 0.75, 0.999])
    def test_roundtrip_unit(self, theta):
        tr = IntervalTransform(0.0, 1.0)
        assert tr.to_constrained(tr.to_unconstrained(theta)) == pytest.approx(theta, rel=1e-9)

    def test_general_interval(self):
        tr = IntervalTransform(1.0, 50.0)
        assert tr.to_constrained(tr.to_unconstrained(7.0)) == pytest.approx(7.0)
        assert 1.0 <= tr.to_constrained(-100) < tr.to_constrained(100) <= 50.0
        assert 1.0 < tr.to_constrained(-20) < tr.to_constrained(20) < 50.0

    def test_boundary_rejected(self):
        tr = IntervalTransform(0.0, 1.0)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                tr.to_unconstrained(bad)

    def test_empty_interval(self):
        with pytest.raises(ValueError, match="empty interval"):
            IntervalTransform(2.0, 2.0)

    def test_midpoint_maps_to_zero(self):
        tr = IntervalTransform(2.0, 6.0)
        assert tr.to_unconstrained(4.0) == pytest.approx(0.0)


class TestSimplex:
    @pytest.mark.parametrize("p0,p1", [(0.5, 0.3), (0.01, 0.01), (0.9, 0.05), (1 / 3, 1 / 3)])
    def test_roundtrip(self, p0, p1):
        back = simplex_unpack(*simplex_pack(p0, p1))
        assert back[0] == pytest.approx(p0, rel=1e-9)
        assert back[1] == pytest.approx(p1, rel=1e-9)

    def test_unpack_always_interior(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=10, size=2)
            p0, p1 = simplex_unpack(*x)
            assert p0 > 0 and p1 > 0 and p0 + p1 < 1

    @pytest.mark.parametrize("p0,p1", [(0.0, 0.5), (0.5, 0.0), (0.6, 0.4), (0.7, 0.5)])
    def test_boundary_rejected(self, p0, p1):
        with pytest.raises(ValueError):
            simplex_pack(p0, p1)
