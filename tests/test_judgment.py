import numpy as np
import pytest

from judgebench.judgment import (
    baseline,
    baseline_hit_stats,
    extract_judgments,
    grid_round,
    negative_share_histogram,
    passes_threshold,
    sign_shares,
)
from judgebench.panel import ForecastPanel, participation_share
from judgebench.quarters import ReleaseKind

from conftest import judgment, panel_from_values, q, rec, series_from

R1 = ReleaseKind.FIRST


class TestBaseline:
    def test_median_odd_count(self):
        panel = panel_from_values({q(2000, 1): [2.0, 3.0, 4.0]})
        assert baseline(panel, R1, "median").at(q(2000, 1)) == 3.0

    def test_median_even_count_midpoint(self):
        panel = panel_from_values({q(2000, 1): [2.0, 4.0]})
        assert baseline(panel, R1, "median").at(q(2000, 1)) == 3.0

    def test_mean(self):
        panel = panel_from_values({q(2000, 1): [1.0, 2.0, 6.0]})
        assert baseline(panel, R1, "mean").at(q(2000, 1)) == 3.0

    def test_empty_quarters_excluded(self):
        panel = panel_from_values({q(2000, 1): [1.0]})
        series = baseline(panel, R1, "median")
        assert np.isnan(series.at(q(2000, 2)))

    def test_median_balance_invariant(self):
        panel = panel_from_values({q(2000, 1): [1.0, 2.0, 2.5, 7.0, 9.0]})
        med = baseline(panel, R1, "median").at(q(2000, 1))
        values = [1.0, 2.0, 2.5, 7.0, 9.0]
        assert sum(v < med for v in values) <= len(values) / 2
        assert sum(v > med for v in values) <= len(values) / 2


class TestExtractJudgments:
    def test_positive_judgment(self):
        panel = panel_from_values({q(2000, 1): [3.2, 3.0, 2.8]})
        jp = extract_judgments(panel, baseline(panel, R1))
        entry = judgment(jp, "E0", q(2000, 1))
        assert entry.value == pytest.approx(0.2)
        assert not entry.neutral

    def test_equal_to_baseline_is_neutral(self):
        panel = panel_from_values({q(2000, 1): [3.0, 3.0, 3.0]})
        jp = extract_judgments(panel, baseline(panel, R1))
        entry = judgment(jp, "E0", q(2000, 1))
        assert entry.value == 0.0
        assert entry.neutral

    def test_sub_grid_difference_is_neutral(self):
        # 3.04 and 3.01 both round to 3.0 on the 0.1 reporting grid.
        panel = ForecastPanel.from_rows(
            [rec("E0", q(2000, 1), 3.04), rec("E1", q(2000, 1), 3.01), rec("E2", q(2000, 1), 2.98)]
        )
        jp = extract_judgments(panel, baseline(panel, R1))
        entry = judgment(jp, "E0", q(2000, 1))
        assert entry.value == pytest.approx(0.03)
        assert entry.neutral

    def test_forecast_without_baseline_rejected(self):
        panel = panel_from_values({q(2000, 1): [1.0], q(2000, 2): [2.0]})
        partial = baseline(panel_from_values({q(2000, 1): [1.0]}), R1)
        with pytest.raises(ValueError):
            extract_judgments(panel, partial)

    def test_quarter_shift_leaves_judgments_unchanged(self):
        values = [1.0, 2.5, 4.0]
        base_panel = panel_from_values({q(2000, 1): values})
        shifted_panel = panel_from_values({q(2000, 1): [v + 5.0 for v in values]})
        jp1 = extract_judgments(base_panel, baseline(base_panel, R1))
        jp2 = extract_judgments(shifted_panel, baseline(shifted_panel, R1))
        for econ in ("E0", "E1", "E2"):
            entry = judgment(jp1, econ, q(2000, 1))
            assert judgment(jp2, econ, q(2000, 1)).value == pytest.approx(entry.value, abs=1e-12)


class TestSignShares:
    def test_single_economist_mixed_signs(self):
        quarters = [q(2000, 1) + i for i in range(3)]
        records = [
            rec("E1", quarters[0], 2.8),  # below the anchored median
            rec("E1", quarters[1], 3.2),  # above
            rec("E1", quarters[2], 3.0),  # equal
        ]
        # Anchor economists pin every quarter's median at 3.0.
        for quarter in quarters:
            records += [rec("A1", quarter, 3.0), rec("A2", quarter, 3.0)]
        panel = ForecastPanel.from_rows(records)
        jp = extract_judgments(panel, baseline(panel, R1))
        stats = sign_shares(jp, participation_share(panel, R1), thresholds=(0.5,))
        # E1 and the two always-neutral anchors all qualify at the 50% threshold.
        assert stats.n_economists.tolist() == [3]
        e1 = (1 / 3, 1 / 3, 1 / 3)
        assert stats.mean_negative == pytest.approx([(e1[0] + 0 + 0) / 3])
        assert stats.mean_positive == pytest.approx([(e1[1] + 0 + 0) / 3])
        assert stats.mean_neutral == pytest.approx([(e1[2] + 1 + 1) / 3])

    def test_all_neutral(self):
        panel = panel_from_values({q(2000, 1): [3.0, 3.0]})
        jp = extract_judgments(panel, baseline(panel, R1))
        stats = sign_shares(jp, participation_share(panel, R1), thresholds=(0.5,))
        assert (stats.mean_negative[0], stats.mean_positive[0], stats.mean_neutral[0]) == (0.0, 0.0, 1.0)

    def test_cross_economist_dispersion(self):
        quarter = q(2000, 1)
        panel = ForecastPanel.from_rows(
            [rec("E1", quarter, 2.0), rec("E2", quarter, 4.0), rec("A", quarter, 3.0)]
        )
        jp = extract_judgments(panel, baseline(panel, R1))
        stats = sign_shares(jp, participation_share(panel, R1), thresholds=(0.5,))
        # Shares across the three economists: negative {1,0,0}, positive {0,1,0}.
        assert stats.mean_negative == pytest.approx([1 / 3])
        assert stats.mean_positive == pytest.approx([1 / 3])
        assert stats.sd_negative == pytest.approx([(2 / 9) ** 0.5])

    def test_threshold_rules(self):
        assert not passes_threshold(0.10, 0.10)  # strictly more than 10%
        assert passes_threshold(0.100001, 0.10)
        assert passes_threshold(0.25, 0.25)  # at least for the higher thresholds
        assert passes_threshold(0.50, 0.50)
        assert not passes_threshold(0.49, 0.50)


class TestNegativeShareHistogram:
    def _jp_panel(self, e1_values):
        quarters = [q(2000, 1) + i for i in range(len(e1_values))]
        records = [rec("E1", quarter, v) for quarter, v in zip(quarters, e1_values)]
        for quarter in quarters:
            records += [rec("A1", quarter, 3.0), rec("A2", quarter, 3.0)]
        panel = ForecastPanel.from_rows(records)
        return extract_judgments(panel, baseline(panel, R1)), panel

    def test_half_negative_bins_to_middle(self):
        jp, panel = self._jp_panel([2.5, 2.6, 3.4, 3.5])
        hist = negative_share_histogram(jp, participation_share(panel, R1), thresholds=(0.5,))
        assert hist.tolist() == [[0, 0, 1, 0, 0]]  # 40-60%

    def test_all_negative_bins_to_top(self):
        jp, panel = self._jp_panel([2.5, 2.6, 2.7, 2.8])
        hist = negative_share_histogram(jp, participation_share(panel, R1), thresholds=(0.5,))
        assert hist.tolist() == [[0, 0, 0, 0, 1]]  # >80%

    def test_neutral_only_economist_excluded(self):
        jp, panel = self._jp_panel([3.0, 3.0, 3.0, 3.0])
        hist = negative_share_histogram(jp, participation_share(panel, R1), thresholds=(0.5,))
        # E1 and both anchors are neutral-only: nothing is binned.
        assert hist.tolist() == [[0] * 5]


class TestBaselineHitStats:
    def _base(self, values):
        from judgebench.judgment import BaselineSeries

        return series_from(values, BaselineSeries, release=R1)

    def test_half_correct_half_over(self):
        base = self._base({q(2000, 1): 2.0, q(2000, 2): 3.0})
        actuals = series_from({q(2000, 1): 2.0, q(2000, 2): 2.5})
        stats = baseline_hit_stats(base, actuals)
        assert (stats.correct, stats.overprediction, stats.underprediction) == (0.5, 0.5, 0.0)

    def test_identical_series(self):
        base = self._base({q(2000, 1): 2.0, q(2000, 2): 3.0})
        actuals = series_from({q(2000, 1): 2.0, q(2000, 2): 3.0})
        assert baseline_hit_stats(base, actuals).correct == 1.0

    def test_uniform_overprediction(self):
        base = self._base({q(2000, 1): 2.2, q(2000, 2): 3.2})
        actuals = series_from({q(2000, 1): 2.0, q(2000, 2): 3.0})
        assert baseline_hit_stats(base, actuals).overprediction == 1.0

    def test_no_overlap_gives_nan_shares(self):
        base = self._base({q(2000, 1): 2.0})
        actuals = series_from({q(2005, 1): 2.0})
        assert all(np.isnan(baseline_hit_stats(base, actuals)))

    def test_shares_sum_to_one(self):
        base = self._base({q(2000, 1): 2.0, q(2000, 2): 3.3, q(2000, 3): 1.1})
        actuals = series_from({q(2000, 1): 2.0, q(2000, 2): 3.0, q(2000, 3): 1.5})
        stats = baseline_hit_stats(base, actuals)
        assert stats.correct + stats.overprediction + stats.underprediction == pytest.approx(1.0)


class TestGridRound:
    def test_rounds_to_tenths(self):
        assert grid_round(3.04, 0.1) == pytest.approx(3.0)
        assert grid_round(3.06, 0.1) == pytest.approx(3.1)

    def test_zero_grid_is_identity(self):
        assert grid_round(3.04159, 0.0) == 3.04159

    # x -> the grid units k of its rounded value k * 0.1.  The quotient x / 0.1 is
    # rounded half to even as a float: 0.15 / 0.1 and 0.95 / 0.1 fall just below
    # their halves, the others land on them.
    HALF_GRID = {0.05: 0, 0.15: 1, 0.25: 2, 0.35: 3, 0.45: 4, 0.55: 6, 0.65: 6, 0.75: 8, 0.85: 8, 0.95: 9}

    @pytest.mark.parametrize("x,units", HALF_GRID.items())
    def test_half_grid_values_round_half_to_even_on_the_float_quotient(self, x, units):
        assert grid_round(x, 0.1) == units * 0.1
        assert grid_round(-x, 0.1) == -units * 0.1

    def test_half_grid_median_is_neutral_with_the_forecast_it_rounds_to(self):
        # The median of 0.2 and 0.3 is 0.25, which rounds to 0.2.
        panel = panel_from_values({q(2000, 1): [0.2, 0.3]})
        jp = extract_judgments(panel, baseline(panel, R1))
        assert [judgment(jp, econ, q(2000, 1)).neutral for econ in ("E0", "E1")] == [True, False]
