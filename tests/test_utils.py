"""Utility layer: log-space arithmetic, RNG policy."""

import numpy as np
import pytest

from repro.utils.numerics import (
    logsumexp_weighted,
    relative_difference,
    validate_probability_vector,
    validate_square,
)
from repro.utils.rng import make_rng


class TestLogsumexpWeighted:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        logs = np.log(rng.random((3, 5)))
        w = np.array([0.2, 0.5, 0.3])
        expected = np.log(np.einsum("k,kp->p", w, np.exp(logs)))
        assert np.allclose(logsumexp_weighted(logs, w), expected)

    def test_extreme_values_stable(self):
        logs = np.array([[-1000.0], [-1001.0]])
        out = logsumexp_weighted(logs, np.array([0.5, 0.5]))
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(-1000.0 + np.log(0.5 * (1 + np.exp(-1))))

    def test_zero_weights_dropped(self):
        logs = np.array([[0.0], [-np.inf]])
        out = logsumexp_weighted(logs, np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(0.0)

    def test_all_zero_weights_give_minus_inf(self):
        logs = np.zeros((2, 1))
        out = logsumexp_weighted(logs, np.zeros(2))
        assert out[0] == -np.inf

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            logsumexp_weighted(np.zeros((2, 1)), np.array([0.5, -0.5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            logsumexp_weighted(np.zeros((2, 1)), np.ones(3))


class TestRelativeDifference:
    def test_paper_metric(self):
        # D = |lnL - lnL̂| / |lnL| (§IV-1).
        assert relative_difference(-100.0, -100.0) == 0.0
        assert relative_difference(-100.0, -100.1) == pytest.approx(0.001)

    def test_zero_reference(self):
        assert relative_difference(0.0, 1.0) == float("inf")
        assert relative_difference(0.0, 0.0) == 0.0


class TestValidators:
    def test_probability_vector(self):
        v = validate_probability_vector(np.array([0.5, 0.5]))
        assert v.dtype == float
        with pytest.raises(ValueError):
            validate_probability_vector(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            validate_probability_vector(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            validate_probability_vector(np.ones((2, 2)) / 4)

    def test_square(self):
        validate_square(np.eye(3))
        with pytest.raises(ValueError):
            validate_square(np.ones((2, 3)))


class TestRng:
    def test_int_seed_reproducible(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen
