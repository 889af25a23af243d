"""Q-matrix assembly invariants (paper Eq. 1 and the Q = SΠ factorisation)."""

import numpy as np
import pytest

from repro.codon.genetic_code import UNIVERSAL
from repro.codon.matrix import (
    build_rate_matrix,
    exchangeability_matrix,
    mean_rate,
)


@pytest.fixture(scope="module")
def pi():
    rng = np.random.default_rng(11)
    raw = rng.dirichlet(np.full(61, 5.0))
    return raw / raw.sum()


class TestExchangeability:
    def test_symmetric(self):
        r = exchangeability_matrix(2.0, 0.5)
        assert np.allclose(r, r.T)

    def test_eq1_entries(self):
        kappa, omega = 3.0, 0.25
        r = exchangeability_matrix(kappa, omega)
        idx = UNIVERSAL.codon_index
        # syn transversion CGT->CGG: factor 1
        assert r[idx["CGT"], idx["CGG"]] == pytest.approx(1.0)
        # syn transition TTT->TTC: factor kappa
        assert r[idx["TTT"], idx["TTC"]] == pytest.approx(kappa)
        # nonsyn transversion TTT->TAT: factor omega
        assert r[idx["TTT"], idx["TAT"]] == pytest.approx(omega)
        # nonsyn transition TTT->CTT: factor kappa*omega
        assert r[idx["TTT"], idx["CTT"]] == pytest.approx(kappa * omega)
        # multiple difference TTT->TCC: zero
        assert r[idx["TTT"], idx["TCC"]] == 0.0

    def test_omega_zero_allowed(self):
        r = exchangeability_matrix(2.0, 0.0)
        assert r.max() > 0  # synonymous entries remain

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            exchangeability_matrix(0.0, 0.5)
        with pytest.raises(ValueError):
            exchangeability_matrix(2.0, -0.1)


class TestBuildRateMatrix:
    def test_rows_sum_to_zero(self, pi):
        m = build_rate_matrix(2.0, 0.5, pi)
        assert np.allclose(m.q.sum(axis=1), 0.0, atol=1e-12)

    def test_unit_mean_rate(self, pi):
        m = build_rate_matrix(2.0, 0.5, pi)
        assert mean_rate(m.q, pi) == pytest.approx(1.0)

    def test_detailed_balance(self, pi):
        m = build_rate_matrix(3.0, 1.7, pi)
        m.check_reversibility()

    def test_s_is_symmetric_including_diagonal_relation(self, pi):
        m = build_rate_matrix(2.0, 0.5, pi)
        assert np.allclose(m.s[np.triu_indices(61, 1)], m.s.T[np.triu_indices(61, 1)])
        assert np.allclose(m.q, m.s * pi[None, :])

    def test_off_diagonal_nonnegative(self, pi):
        m = build_rate_matrix(2.0, 0.5, pi)
        off = m.q.copy()
        np.fill_diagonal(off, 0.0)
        assert off.min() >= 0.0

    def test_scale_none_keeps_raw_rates(self, pi):
        raw = build_rate_matrix(2.0, 0.5, pi, scale="none")
        assert raw.scale == 1.0
        assert mean_rate(raw.q, pi) != pytest.approx(1.0)

    def test_explicit_scale(self, pi):
        raw = build_rate_matrix(2.0, 0.5, pi, scale="none")
        factor = mean_rate(raw.q, pi)
        scaled = build_rate_matrix(2.0, 0.5, pi, scale=factor)
        assert mean_rate(scaled.q, pi) == pytest.approx(1.0)
        assert scaled.scale == pytest.approx(factor)

    def test_raw_mean_rate_roundtrip(self, pi):
        m = build_rate_matrix(2.0, 0.5, pi)
        raw = build_rate_matrix(2.0, 0.5, pi, scale="none")
        assert m.raw_mean_rate() == pytest.approx(mean_rate(raw.q, pi))

    def test_omega_scales_nonsynonymous_rates_only(self, pi):
        idx = UNIVERSAL.codon_index
        low = build_rate_matrix(2.0, 0.2, pi, scale="none")
        high = build_rate_matrix(2.0, 2.0, pi, scale="none")
        # Synonymous entry unchanged.
        i, j = idx["TTT"], idx["TTC"]
        assert low.q[i, j] == pytest.approx(high.q[i, j])
        # Non-synonymous entry scales by omega ratio.
        i, j = idx["TTT"], idx["CTT"]
        assert high.q[i, j] / low.q[i, j] == pytest.approx(10.0)

    def test_wrong_pi_dimension(self):
        with pytest.raises(ValueError, match="sense codons"):
            build_rate_matrix(2.0, 0.5, np.full(60, 1 / 60))

    def test_zero_pi_rejected(self):
        pi = np.full(61, 1 / 61)
        pi[0] = 0.0
        pi[1] += 1 / 61
        with pytest.raises(ValueError, match="strictly positive"):
            build_rate_matrix(2.0, 0.5, pi)

    def test_bad_scale_mode(self, pi):
        with pytest.raises(ValueError, match="scale"):
            build_rate_matrix(2.0, 0.5, pi, scale="bogus")
        with pytest.raises(ValueError):
            build_rate_matrix(2.0, 0.5, pi, scale=-1.0)
