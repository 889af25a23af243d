"""Likelihood ratio test arithmetic."""

import math

import pytest
import scipy.stats

from repro.optimize.lrt import likelihood_ratio_test


class TestLRT:
    def test_statistic(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.statistic == pytest.approx(10.0)
        assert res.df == 1

    def test_chi2_pvalue(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.pvalue_chi2 == scipy.stats.chi2.sf(10.0, 1)

    def test_mixture_pvalue_is_half(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.pvalue_mixture == pytest.approx(res.pvalue_chi2 / 2)

    def test_negative_statistic_clamped(self):
        res = likelihood_ratio_test(-1000.0, -1000.5)
        assert res.statistic == 0.0
        assert res.pvalue_chi2 == 1.0
        assert res.pvalue_mixture == 1.0

    def test_zero_statistic(self):
        res = likelihood_ratio_test(-1000.0, -1000.0)
        assert res.statistic == 0.0
        assert not res.significant()

    def test_significance_threshold(self):
        # 2*delta = 3.84 is the 5% critical value of chi2_1.
        just_below = likelihood_ratio_test(0.0, 3.84 / 2 - 0.01)
        just_above = likelihood_ratio_test(0.0, 3.84 / 2 + 0.01)
        assert not just_below.significant(0.05)
        assert just_above.significant(0.05)

    def test_mixture_less_conservative(self):
        # A statistic significant under the mixture but not under chi2.
        res = likelihood_ratio_test(0.0, 3.2 / 2)
        assert res.significant(0.05, conservative=False)
        assert not res.significant(0.05, conservative=True)

    def test_df_validated(self):
        with pytest.raises(ValueError):
            likelihood_ratio_test(-1.0, 0.0, df=0)

    def test_higher_df(self):
        res = likelihood_ratio_test(-10.0, -5.0, df=2)
        assert res.pvalue_chi2 == scipy.stats.chi2.sf(10.0, 2)

    @pytest.mark.parametrize("df", [1, 2, 3])
    @pytest.mark.parametrize("statistic", [0.0, 1e-12, 0.5, 2.7, 3.84, 10.0, 50.0, 700.0, 1e6])
    def test_tail_bit_identical_to_scipy_stats(self, statistic, df):
        res = likelihood_ratio_test(0.0, statistic / 2, df=df)
        assert res.statistic == statistic
        expected = 1.0 if statistic == 0.0 else float(scipy.stats.chi2.sf(statistic, df))
        assert res.pvalue_chi2 == expected
        assert res.pvalue_mixture == (1.0 if statistic == 0.0 else 0.5 * expected)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("side", ["lnl_null", "lnl_alternative"])
    def test_non_finite_lnl_rejected(self, bad, side):
        # A failed fit must not read as a test result: −inf under H0 used
        # to give p = 0 ("significant"), NaN a silent "not significant".
        lnl = {"lnl_null": -10.0, "lnl_alternative": -10.0, side: bad}
        with pytest.raises(ValueError, match=side):
            likelihood_ratio_test(**lnl)
