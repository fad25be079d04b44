import math

import numpy as np
import pytest
import scipy.stats

from judgebench.accuracy import accuracy_table, beat_baseline_share, dm_test, hln_correction
from judgebench.errors import EstimationError
from judgebench.panel import ForecastPanel, participation_share
from judgebench.quarters import ReleaseKind

from conftest import q, rec, series_from

R1 = ReleaseKind.FIRST


def paired_rmse(forecaster, base, actuals):
    """The RMSEs of forecaster and baseline over their common quarters, and the count of them.

    Taken by ``accuracy_table`` on a one-economist panel; None when the
    forecaster shares no quarter with the baseline and the actuals, so the
    table leaves it out.
    """
    panel = ForecastPanel.from_rows(rec("E1", quarter, value) for quarter, value in forecaster.items())
    table = accuracy_table(panel, R1, series_from(base), actuals)
    return (table.rmse_self[0], table.rmse_baseline[0], table.n_common[0]) if table.economist.size else None


class TestPairedRmse:
    def test_identical_series(self):
        quarters = {q(2000, 1): 1.0, q(2000, 2): 2.0}
        actuals = series_from({q(2000, 1): 1.5, q(2000, 2): 1.5})
        self_rmse, base_rmse, n = paired_rmse(quarters, dict(quarters), actuals)
        assert self_rmse == base_rmse
        assert n == 2

    def test_unit_errors_vs_perfect_baseline(self):
        actuals = series_from({q(2000, 1): 0.0, q(2000, 2): 0.0})
        forecaster = {q(2000, 1): 1.0, q(2000, 2): -1.0}
        base = {q(2000, 1): 0.0, q(2000, 2): 0.0}
        assert paired_rmse(forecaster, base, actuals) == (1.0, 0.0, 2)

    def test_extra_baseline_quarters_ignored(self):
        actuals = series_from({q(2000, 1): 0.0, q(2000, 2): 0.0, q(2000, 3): 0.0})
        forecaster = {q(2000, 1): 1.0}
        base = {q(2000, 1): 0.5, q(2000, 2): 9.0, q(2000, 3): 9.0}
        self_rmse, base_rmse, n = paired_rmse(forecaster, base, actuals)
        assert (self_rmse, base_rmse, n) == (1.0, 0.5, 1)

    def test_empty_intersection_left_out(self):
        actuals = series_from({q(2000, 1): 0.0})
        assert paired_rmse({q(2000, 1): 1.0}, {q(2005, 1): 1.0}, actuals) is None

    def test_quarter_order_irrelevant(self):
        actuals = series_from({q(2000, 1): 0.0, q(2000, 2): 1.0, q(2000, 3): 2.0})
        f = {q(2000, 1): 0.5, q(2000, 2): 1.5, q(2000, 3): 1.0}
        b = {q(2000, 3): 2.0, q(2000, 1): 0.0, q(2000, 2): 1.0}
        a1 = paired_rmse(f, b, actuals)
        a2 = paired_rmse(dict(reversed(list(f.items()))), b, actuals)
        assert a1 == a2


class TestDmTest:
    def test_zero_mean_differential(self):
        assert dm_test([1.0, -1.0, 1.0, -1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_differential_rejected(self):
        with pytest.raises(EstimationError):
            dm_test([1.0, 1.0, 1.0, 1.0])

    def test_hand_computed_case(self):
        # d = {2,0,2,0}: mean 1, population lag-0 autocovariance 1, DM = 1/sqrt(1/4) = 2.
        assert dm_test([2.0, 0.0, 2.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_antisymmetry(self):
        d = [2.0, 0.0, 1.0, -0.5]
        assert dm_test([-x for x in d]) == pytest.approx(-dm_test(d), abs=1e-12)

    def test_single_differential_rejected(self):
        with pytest.raises(EstimationError, match="at least 2"):
            dm_test([1.0])


# Blocks of 2 to 30 differentials, one constant (zero variance), one with a large mean and a tiny spread.
RNG = np.random.default_rng(2024)
BLOCKS = [RNG.normal(size=k) * RNG.uniform(0.1, 5.0) for k in (2, 3, 5, 9, 4, 7, 2, 6)]
BLOCKS += [np.full(4, 0.75), 1e6 + 1e-3 * RNG.normal(size=8), RNG.normal(size=30)]


def stacked(blocks):
    """The blocks one after another, and their bounds."""
    return np.concatenate(blocks), np.cumsum([0, *(len(b) for b in blocks)])


class TestBlockedDm:
    def test_each_block_has_the_bits_of_its_own_series(self):
        tested = [b for b in BLOCKS if np.ptp(b) > 0]
        statistics, tested_mask = dm_test(*stacked(tested))
        assert [x.hex() for x in statistics.tolist()] == [dm_test(b).hex() for b in tested]
        assert tested_mask.all()

    def test_one_element_and_zero_variance_blocks_are_nan(self):
        blocks = [BLOCKS[0], np.array([1.5]), np.full(4, 0.75), BLOCKS[1], np.array([-2.0])]
        statistics, tested = dm_test(*stacked(blocks))
        assert np.isnan(statistics).tolist() == [False, True, True, False, True]
        assert tested.tolist() == [True, False, False, True, False]
        assert [statistics[0].hex(), statistics[3].hex()] == [dm_test(BLOCKS[0]).hex(), dm_test(BLOCKS[1]).hex()]

    def test_no_blocks(self):
        statistics, tested = dm_test(np.array([]), np.array([0]))
        assert statistics.size == tested.size == 0


def test_overflowed_squared_error_keeps_nan_statistics_without_a_note():
    # A forecast of 1e200 squares to inf; the comparison is reported with NaN statistics, not as degenerate.
    panel = ForecastPanel.from_rows(rec("E1", q(2000, 1) + i, v) for i, v in enumerate((1e200, 1.0, 2.0)))
    base = series_from({q(2000, 1): 0.0, q(2000, 2): 0.5, q(2000, 3): 0.0})
    actuals = series_from({q(2000, 1) + i: 0.0 for i in range(3)})
    with np.errstate(over="ignore", invalid="ignore"):
        table = accuracy_table(panel, R1, base, actuals)
    assert (table.n_common.tolist(), table.rmse_self.tolist(), table.note) == ([3], [math.inf], [""])
    assert all(math.isnan(x) for x in (*table.dm_statistic, *table.hln_statistic, *table.p_value_hln))


class TestHlnCorrection:
    def test_factor_tends_to_one(self):
        stat, _ = hln_correction(1.0, 10_000)
        assert stat == pytest.approx(1.0, abs=1e-3)

    def test_small_sample_factor(self):
        stat, _ = hln_correction(1.0, 4)
        assert stat == pytest.approx(math.sqrt(3 / 4), abs=1e-12)

    def test_zero_statistic_p_one(self):
        _, p = hln_correction(0.0, 10)
        assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nobs", [2, 3, 7, 40, 1001])
    def test_one_step_factor_matches_the_general_horizon_formula(self, nobs):
        # HLN's factor sqrt((T + 1 - 2h + h(h - 1)/T) / T) at h = 1, to the bit.
        h, dm = 1, 1.7
        stat, _ = hln_correction(dm, nobs)
        assert stat == dm * math.sqrt((nobs + 1 - 2 * h + h * (h - 1) / nobs) / nobs)

    def test_factor_at_most_one_and_t_tail_heavier(self):
        for T in (2, 4, 8, 50):
            stat, p = hln_correction(1.5, T)
            assert 0 < stat <= 1.5
            normal_p = 2 * scipy.stats.norm.sf(abs(stat))
            assert p >= normal_p


class TestBeatBaselineShare:
    def _setup(self, forecaster_offsets):
        quarters = [q(2000, 1) + i for i in range(10)]
        actual = {quarter: float(i % 3) for i, quarter in enumerate(quarters)}
        base_values = {quarter: actual[quarter] + 0.5 for quarter in quarters}
        records = []
        for name, offset in forecaster_offsets.items():
            for quarter in quarters:
                records.append(rec(name, quarter, actual[quarter] + offset))
        panel = ForecastPanel.from_rows(records)
        base = series_from(base_values)
        return panel, base, series_from(actual)

    def test_everyone_matches_baseline_counts_as_not_beating(self):
        panel, base, actuals = self._setup({"E1": 0.5, "E2": 0.5})
        shares = beat_baseline_share(
            accuracy_table(panel, R1, base, actuals), participation_share(panel, R1), thresholds=(0.5,)
        )
        assert shares.tolist() == [0.0]

    def test_one_of_four_strictly_better(self):
        panel, base, actuals = self._setup({"E1": 0.2, "E2": 0.5, "E3": 0.9, "E4": 0.5})
        shares = beat_baseline_share(
            accuracy_table(panel, R1, base, actuals), participation_share(panel, R1), thresholds=(0.5,)
        )
        assert shares.tolist() == [0.25]

    def test_one_share_per_threshold_and_nan_where_none_qualifies(self):
        panel, base, actuals = self._setup({"E1": 0.2, "E2": 0.5, "E3": 0.9, "E4": 0.5})
        shares = beat_baseline_share(
            accuracy_table(panel, R1, base, actuals), participation_share(panel, R1), thresholds=(0.5, 1.5, 0.1)
        )
        assert shares[[0, 2]].tolist() == [0.25, 0.25] and math.isnan(shares[1])
