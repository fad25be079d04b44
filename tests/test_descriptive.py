import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from judgebench.descriptive import armse, quarter_stats, rmse
from judgebench.quarters import ReleaseKind

from conftest import panel_from_values, q, series_from


def stats_for(values, actual):
    """The one quarter's statistics, each as a Python number (NaN where absent)."""
    quarter = q(2000, 1)
    panel = panel_from_values({quarter: values})
    actuals = series_from({quarter: actual})
    result = quarter_stats(panel, actuals, ReleaseKind.FIRST)
    assert result.quarter.size == 1
    return SimpleNamespace(**{name: column.item() for name, column in vars(result).items()})


class TestQuarterStats:
    def test_symmetric_cross_section(self):
        s = stats_for([1.0, 2.0, 3.0], 2.0)
        assert s.n == 3
        assert s.rmse == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert s.std_dev == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert s.skewness == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_cross_section(self):
        s = stats_for([2.0, 2.0, 2.0, 2.0], 2.0)
        assert s.rmse == 0.0
        assert s.std_dev == 0.0
        assert math.isnan(s.skewness)
        assert math.isnan(s.excess_kurtosis)

    @pytest.mark.parametrize("tiny", [1e-160, 1e-100])
    def test_variance_whose_powers_underflow_is_degenerate(self, tiny):
        # m2 > 0, but m2**2 (and for 1e-160 also m2**1.5) underflows to 0.
        s = stats_for([tiny, 0.0, 0.0, 0.0], 0.0)
        assert s.std_dev > 0.0
        assert math.isnan(s.skewness)
        assert math.isnan(s.excess_kurtosis)

    def test_asymmetric_cross_section_brute_force(self):
        # forecasts {0,0,0,4}, actual 1: errors {-1,-1,-1,3}, mean forecast 1,
        # central moments m2=3, m3=6, m4=21.
        s = stats_for([0.0, 0.0, 0.0, 4.0], 1.0)
        assert s.rmse == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert s.std_dev == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert s.skewness == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert s.excess_kurtosis == pytest.approx(-2 / 3, abs=1e-12)

    def test_skewness_absent_below_three(self):
        s = stats_for([1.0, 2.0], 1.5)
        assert math.isnan(s.skewness)

    def test_kurtosis_absent_below_four(self):
        s = stats_for([1.0, 2.0, 3.0], 2.0)
        assert math.isnan(s.excess_kurtosis)

    def test_quarter_without_actual_excluded_with_warning(self):
        panel = panel_from_values({q(2000, 1): [1.0], q(2000, 2): [2.0]})
        actuals = series_from({q(2000, 1): 1.0})
        with pytest.warns(UserWarning):
            result = quarter_stats(panel, actuals, ReleaseKind.FIRST)
        assert result.quarter.tolist() == [q(2000, 1)]

    def test_shift_invariance(self):
        base = stats_for([0.0, 1.0, 3.0, 7.0], 2.0)
        shifted = stats_for([10.0, 11.0, 13.0, 17.0], 12.0)
        assert shifted.rmse == pytest.approx(base.rmse, abs=1e-12)
        assert shifted.std_dev == pytest.approx(base.std_dev, abs=1e-12)
        assert shifted.skewness == pytest.approx(base.skewness, abs=1e-12)
        assert shifted.excess_kurtosis == pytest.approx(base.excess_kurtosis, abs=1e-12)

    def test_scale_equivariance(self):
        base = stats_for([0.0, 1.0, 3.0, 7.0], 2.0)
        scaled = stats_for([0.0, 2.0, 6.0, 14.0], 4.0)
        assert scaled.rmse == pytest.approx(2 * base.rmse, abs=1e-12)
        assert scaled.std_dev == pytest.approx(2 * base.std_dev, abs=1e-12)
        assert scaled.skewness == pytest.approx(base.skewness, abs=1e-12)
        assert scaled.excess_kurtosis == pytest.approx(base.excess_kurtosis, abs=1e-12)


class TestArmse:
    def _rmses_of_quarters(self, rmses):
        quarters = [q(2000, 1) + i for i in range(len(rmses))]
        panel = panel_from_values(
            {quarter: [r, -r] for quarter, r in zip(quarters, rmses)}
        )
        actuals = series_from({quarter: 0.0 for quarter in quarters})
        stats = quarter_stats(panel, actuals, ReleaseKind.FIRST)
        for s, r in zip(stats.rmse.tolist(), rmses):
            assert s == pytest.approx(r, abs=1e-12)
        return stats.rmse

    def test_mean_of_per_quarter_rmses(self):
        assert armse(self._rmses_of_quarters([1.0, 3.0])) == pytest.approx(2.0, abs=1e-12)

    def test_singleton(self):
        assert armse(self._rmses_of_quarters([0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_constant_rmses(self):
        rmses = self._rmses_of_quarters([0.85] * 10)
        assert armse(rmses) == pytest.approx(0.85, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            armse([])


def test_degenerate_and_empty_cross_sections_raise_no_numpy_warning():
    panel = panel_from_values({q(2000, 1): [2.0, 2.0, 2.0, 2.0], q(2000, 2): [1.0], q(2000, 3): [1.0, 3.0]})
    actuals = series_from({q(2000, 1) + i: 0.0 for i in range(3)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = quarter_stats(panel, actuals, ReleaseKind.FIRST)
        empty = quarter_stats(panel_from_values({}), actuals, ReleaseKind.FIRST)
    assert stats.n.tolist() == [4, 1, 2]
    assert np.isnan(stats.skewness).all() and np.isnan(stats.excess_kurtosis).all()
    assert all(column.size == 0 for column in vars(empty).values())


def test_blocked_rmse_has_the_bits_of_one_call_per_block():
    rng = np.random.default_rng(7)
    blocks = [rng.normal(size=k) * rng.uniform(0.1, 5.0) for k in (1, 2, 3, 9, 30)]
    blocks += [np.full(4, -0.75), np.array([0.0]), 1e6 + 1e-3 * rng.normal(size=8)]
    errors, bounds = np.concatenate(blocks), np.cumsum([0, *(b.size for b in blocks)])
    assert [x.hex() for x in rmse(errors, bounds).tolist()] == [rmse(b).hex() for b in blocks]
