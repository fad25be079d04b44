import math

import numpy as np
import pytest

from judgebench.armodel import DEFAULT_MAX_GAP, DEFAULT_MAX_LAG, MIN_PRESAMPLE, fill_missing, recursive_ar_forecast, select_lag
from judgebench.errors import EstimationError, IngestionError
from judgebench.panel import QuarterSeries
from judgebench.quarters import ReleaseKind, quarter_label

from conftest import present, q, series_from

R1 = ReleaseKind.FIRST


def series(values, start=q(1990, 1)):
    return series_from({start + i: float(v) for i, v in enumerate(values)})


class TestFillMissing:
    def test_linear_midpoint(self):
        s = series_from({q(2000, 1): 1.0, q(2000, 3): 3.0})
        filled = fill_missing(s)
        assert filled.at(q(2000, 2)) == pytest.approx(2.0)

    def test_gap_at_the_limit_filled(self):
        s = series_from({q(2000, 1): 0.0, q(2000, 1) + DEFAULT_MAX_GAP + 1: float(DEFAULT_MAX_GAP + 1)})
        filled = fill_missing(s)
        gap = [q(2000, 1) + i for i in range(1, DEFAULT_MAX_GAP + 1)]
        assert [filled.at(quarter) for quarter in gap] == pytest.approx([float(i) for i in range(1, DEFAULT_MAX_GAP + 1)])

    def test_covers_only_the_series_own_span(self):
        s = series_from({q(2000, 2): 1.0, q(2000, 4): 3.0, q(2001, 1): 4.0})
        assert list(present(fill_missing(s))) == [q(2000, 2), q(2000, 3), q(2000, 4), q(2001, 1)]

    def test_empty_series_rejected(self):
        with pytest.raises(IngestionError, match="empty"):
            fill_missing(series_from({}))

    def test_long_interior_gap_rejected(self):
        s = series_from({q(2000, 1): 1.0, q(2001, 2): 3.0})  # 4 missing quarters
        with pytest.raises(IngestionError):
            fill_missing(s)

    def test_idempotent(self):
        s = series_from({q(2000, 1): 1.0, q(2000, 3): 3.0})
        once = fill_missing(s)
        twice = fill_missing(once)
        assert present(once) == present(twice)


class TestLagOrder:
    @pytest.mark.parametrize("lag", [-1, DEFAULT_MAX_LAG + 1])
    def test_lag_order_outside_the_cap_rejected(self, lag):
        with pytest.raises(ValueError, match="lag order"):
            recursive_ar_forecast(series(range(30)), lag=lag)

    def test_lag_order_at_the_cap_accepted(self):
        forecasts = recursive_ar_forecast(series(ar_noise(42, 30)), lag=DEFAULT_MAX_LAG)
        assert set(forecasts.p_used.tolist()) == {DEFAULT_MAX_LAG}


class TestSelectLag:
    def test_noiseless_ar1_ties_break_to_one(self):
        rng = np.random.default_rng(30)
        y = [float(rng.normal())]
        for _ in range(60):
            y.append(0.9 * y[-1] + 0.0)
        # RSS is 0 at every p >= 1; the tie resolves to the smallest such p.
        assert select_lag(series(y), max_lag=4) == 1

    def test_white_noise_prefers_zero(self):
        rng = np.random.default_rng(31)
        assert select_lag(series(rng.normal(size=200)), max_lag=4) == 0

    def test_strong_persistence_picks_a_lag(self):
        rng = np.random.default_rng(32)
        y = [0.0]
        for _ in range(300):
            y.append(0.85 * y[-1] + float(rng.normal(0, 0.3)))
        assert select_lag(series(y), max_lag=4) >= 1

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            select_lag(series([1.0, 2.0, 3.0]), max_lag=4)

    @pytest.mark.parametrize("length", [11, 14])
    def test_series_too_short_for_every_candidate_rejected(self, length):
        # Orders whose effective sample holds no more observations than parameters
        # fit exactly, and an RSS of 0 would win the criterion.
        noise = np.random.default_rng(37).normal(size=length)
        with pytest.raises(EstimationError, match="too short"):
            select_lag(noise, max_lag=8)

    def test_shortest_series_for_max_lag_accepted(self):
        noise = np.random.default_rng(38).normal(size=18)  # 10 effective observations, at most 9 parameters
        assert 0 <= select_lag(noise, max_lag=8) <= 8

    @pytest.mark.parametrize("length,max_lag", [(30, 4), (50, 8), (70, 8)])
    def test_matches_per_series_reference(self, length, max_lag):
        values = ar_noise(39, length)
        assert select_lag(values, max_lag=max_lag) == reference_order(values, max_lag)


def ar_noise(seed, length, level=0.0):
    """A seeded AR(2) series around ``level``."""
    y = np.random.default_rng(seed).normal(size=length)
    for t in range(2, length):
        y[t] += 0.6 * y[t - 1] - 0.3 * y[t - 2]
    return level + y


def lstsq_ar(values, p, start, end):
    """AR(p) with intercept over t = start..end-1, refit on its own by lstsq; returns coefficients and RSS."""
    t = np.arange(start, end)
    X = np.column_stack([np.ones(t.size)] + [values[t - j] for j in range(1, p + 1)])
    coef, *_ = np.linalg.lstsq(X, values[t], rcond=None)
    return coef, float(np.sum((values[t] - X @ coef) ** 2))


def reference_order(values, max_lag):
    """SIC order on the common sample t = max_lag..end-1, ties to the smaller order."""
    n = values.size - max_lag
    crits = [math.log(lstsq_ar(values, p, max_lag, values.size)[1] / n) + (p + 1) * math.log(n) / n
             for p in range(max_lag + 1)]
    return int(np.argmin(crits))


def reference_forecast(values, size, p):
    coef, _ = lstsq_ar(values, p, p, size)
    return coef[0] + coef[1:] @ values[size - np.arange(1, p + 1)]


@pytest.mark.parametrize("level", [0.0, 100.0])
@pytest.mark.parametrize("lag", [0, 1, 2, 3, 4, None], ids=lambda lag: "select" if lag is None else f"p{lag}")
def test_stacked_forecasts_match_per_target_refits(lag, level):
    values = ar_noise(40, 70, level)
    forecasts = recursive_ar_forecast(series(values), lag=lag)
    # The targets: every quarter with its presample before it, through the last.
    sizes = np.arange(MIN_PRESAMPLE + (0 if lag is None else lag), values.size)
    assert forecasts.quarter_index().tolist() == (q(1990, 1) + sizes).tolist()
    orders = [reference_order(values[:n], min(DEFAULT_MAX_LAG, n - MIN_PRESAMPLE, (n - 2) // 2))
              if lag is None else lag for n in sizes]
    expected = [reference_forecast(values, n, p) for n, p in zip(sizes, orders)]
    assert forecasts.p_used.tolist() == orders
    if lag is None:
        assert len(set(orders)) > 1  # the orders differ, so the targets span several stacks
    np.testing.assert_allclose(forecasts.values, expected, rtol=1e-12, atol=1e-12 * np.abs(values).max())


class TestRankFallback:
    """A rank-deficient AR(p) fit falls back to AR(p-1), down to the mean."""

    CONSTANT = 1.7

    def values(self):
        return np.concatenate([np.full(20, self.CONSTANT), ar_noise(41, 40, self.CONSTANT)])

    def test_constant_stretch_and_later_targets_in_one_call(self):
        values = self.values()
        sizes = np.arange(12, values.size)
        forecasts = recursive_ar_forecast(series(values), lag=2)
        inside = sizes <= 20  # every observation before the target is the constant
        assert (forecasts.values[inside] == self.CONSTANT).all()
        # Size 21 sees one varying value, but only as a response; size 22 sees it as a first lag.
        expected_p = np.where(sizes <= 21, 0, np.where(sizes == 22, 1, 2))
        assert forecasts.p_used.tolist() == expected_p.tolist()
        expected = [reference_forecast(values, n, p) for n, p in zip(sizes[~inside], expected_p[~inside])]
        np.testing.assert_allclose(forecasts.values[~inside], expected, rtol=1e-12, atol=1e-12)

    def test_selection_on_constant_prefix_is_zero(self):
        assert select_lag(self.values()[:20], max_lag=4) == 0


class TestRecursiveArForecast:
    def test_constant_series(self):
        s = series([2.5] * 30)
        forecasts = recursive_ar_forecast(s, lag=1)
        for value in present(forecasts).values():
            assert value == pytest.approx(2.5, abs=1e-8)

    def test_noiseless_ar1_matches_analytic_recursion(self):
        y = [1.0]
        for _ in range(40):
            y.append(2.0 + 0.5 * y[-1])
        s = series(y)
        targets = [q(1990, 1) + i for i in range(25, 41)]
        forecasts = recursive_ar_forecast(s, lag=1)
        for i, target in enumerate(targets, start=25):
            assert forecasts.at(target) == pytest.approx(y[i], abs=1e-9)

    def test_no_lookahead(self):
        rng = np.random.default_rng(33)
        values = list(rng.normal(size=40))
        target = q(1990, 1) + 30
        base = recursive_ar_forecast(series(values), lag=1).at(target)
        perturbed = list(values)
        for i in range(30, 40):
            perturbed[i] += 100.0
        after = recursive_ar_forecast(series(perturbed), lag=1).at(target)
        assert after == base

    def test_affine_equivariance(self):
        rng = np.random.default_rng(34)
        values = list(rng.normal(size=40))
        targets = [q(1990, 1) + i for i in (30, 35)]
        base = recursive_ar_forecast(series(values), lag=1)
        a, b = 2.0, -3.0
        mapped = recursive_ar_forecast(series([a * v + b for v in values]), lag=1)
        for target in targets:
            assert mapped.at(target) == pytest.approx(a * base.at(target) + b, abs=1e-8)

    def test_series_without_presample_has_no_default_target(self):
        forecasts = recursive_ar_forecast(series(ar_noise(44, MIN_PRESAMPLE + 1)), lag=1)
        assert forecasts.values.size == 0 and forecasts.p_used.size == 0

    @pytest.mark.parametrize("lag", [0, 2, None])
    def test_first_target_is_the_first_with_its_presample(self, lag):
        forecasts = recursive_ar_forecast(series(ar_noise(43, 30)), lag=lag)
        need = MIN_PRESAMPLE + (lag or 0)
        assert forecasts.quarter_index().tolist() == list(range(q(1990, 1) + need, q(1990, 1) + 30))

    @pytest.mark.parametrize("values", [[], [math.nan] * 20], ids=["empty", "all-nan"])
    def test_series_without_values_has_no_forecasts(self, values):
        forecasts = recursive_ar_forecast(QuarterSeries(q(1990, 1), np.array(values, dtype=float)), lag=1)
        assert forecasts.values.size == 0 and forecasts.p_used.size == 0

    def test_presample_counts_from_the_first_value(self):
        values = ar_noise(45, 30)
        leading = QuarterSeries(q(1990, 1), np.concatenate([np.full(5, np.nan), values]))
        forecasts = recursive_ar_forecast(leading, lag=1)
        expected = recursive_ar_forecast(series(values, start=q(1990, 1) + 5), lag=1)
        assert forecasts.quarter_index().tolist() == expected.quarter_index().tolist()
        assert forecasts.values.tolist() == expected.values.tolist()

    def test_gap_before_a_target_names_the_quarter(self):
        values = ar_noise(46, 30)
        values[20] = np.nan
        with pytest.raises(EstimationError, match=f"gap at {quarter_label(q(1990, 1) + 20)}"):
            recursive_ar_forecast(QuarterSeries(q(1990, 1), values), lag=1)

    def test_reselection_runs(self):
        rng = np.random.default_rng(35)
        s = series(rng.normal(size=60))
        targets = [q(1990, 1) + i for i in range(MIN_PRESAMPLE, 60)]
        forecasts = recursive_ar_forecast(s, lag=None)
        assert set(present(forecasts)) == set(targets)

    def test_reselection_keeps_presample_for_earliest_target(self):
        # A persistent AR(1): the criterion prefers p > 0 whenever it may pick it.
        rng = np.random.default_rng(36)
        values = [0.0]
        for _ in range(39):
            values.append(0.9 * values[-1] + rng.normal())
        s = series(values)
        targets = [q(1990, 1) + i for i in range(MIN_PRESAMPLE, 40)]
        forecasts = recursive_ar_forecast(s, lag=None)
        assert set(present(forecasts)) == set(targets)
