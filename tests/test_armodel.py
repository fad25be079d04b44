import numpy as np
import pytest

from judgebench.armodel import ARSpec, fill_missing, recursive_ar_forecast, select_lag
from judgebench.errors import EstimationError, IngestionError
from judgebench.quarters import Quarter, ReleaseKind

from conftest import actuals_from, q

R1 = ReleaseKind.FIRST


def series(values, start=Quarter(1990, 1)):
    return actuals_from({start.shifted(i): float(v) for i, v in enumerate(values)})


class TestFillMissing:
    def test_linear_midpoint(self):
        s = actuals_from({q(2000, 1): 1.0, q(2000, 3): 3.0})
        filled = fill_missing(s)
        assert filled[q(2000, 2)] == pytest.approx(2.0)
        assert q(2000, 2).index in filled.filled

    def test_leading_edge_constant(self):
        s = actuals_from({q(2000, 2): 5.0, q(2000, 3): 6.0})
        filled = fill_missing(s, first=q(2000, 1))
        assert filled[q(2000, 1)] == 5.0

    def test_trailing_edge_constant(self):
        s = actuals_from({q(2000, 1): 5.0, q(2000, 2): 6.0})
        filled = fill_missing(s, last=q(2000, 3))
        assert filled[q(2000, 3)] == 6.0

    def test_long_interior_gap_rejected(self):
        s = actuals_from({q(2000, 1): 1.0, q(2001, 2): 3.0})  # 4 missing quarters
        with pytest.raises(IngestionError):
            fill_missing(s)

    def test_idempotent(self):
        s = actuals_from({q(2000, 1): 1.0, q(2000, 3): 3.0})
        once = fill_missing(s)
        twice = fill_missing(once)
        assert dict(once.items()) == dict(twice.items())


class TestSelectLag:
    def test_noiseless_ar1_ties_break_to_one(self):
        rng = np.random.default_rng(30)
        y = [float(rng.normal())]
        for _ in range(60):
            y.append(0.9 * y[-1] + 0.0)
        # RSS is 0 at every p >= 1; the tie resolves to the smallest such p.
        assert select_lag(series(y), max_lag=4, criterion="SIC") == 1

    def test_white_noise_prefers_zero(self):
        rng = np.random.default_rng(31)
        assert select_lag(series(rng.normal(size=200)), max_lag=4, criterion="SIC") == 0

    def test_criteria_agree_on_strong_persistence(self):
        rng = np.random.default_rng(32)
        y = [0.0]
        for _ in range(300):
            y.append(0.85 * y[-1] + float(rng.normal(0, 0.3)))
        picks = [select_lag(series(y), max_lag=4, criterion=c) for c in ("AIC", "SIC", "HQ")]
        assert all(p >= 1 for p in picks)

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            select_lag(series([1.0, 2.0, 3.0]), max_lag=4)


class TestRecursiveArForecast:
    def test_constant_series(self):
        s = series([2.5] * 30)
        targets = [Quarter(1990, 1).shifted(i) for i in range(20, 30)]
        forecasts = recursive_ar_forecast(s, [t.index for t in targets], ARSpec(p=1))
        for _, value in forecasts.items():
            assert value == pytest.approx(2.5, abs=1e-8)

    def test_noiseless_ar1_matches_analytic_recursion(self):
        y = [1.0]
        for _ in range(40):
            y.append(2.0 + 0.5 * y[-1])
        s = series(y)
        targets = [Quarter(1990, 1).shifted(i) for i in range(25, 41)]
        forecasts = recursive_ar_forecast(s, [t.index for t in targets], ARSpec(p=1))
        for i, target in enumerate(targets, start=25):
            assert forecasts[target] == pytest.approx(y[i], abs=1e-9)

    def test_no_lookahead(self):
        rng = np.random.default_rng(33)
        values = list(rng.normal(size=40))
        target = Quarter(1990, 1).shifted(30)
        base = recursive_ar_forecast(series(values), [target.index], ARSpec(p=1))[target]
        perturbed = list(values)
        for i in range(30, 40):
            perturbed[i] += 100.0
        after = recursive_ar_forecast(series(perturbed), [target.index], ARSpec(p=1))[target]
        assert after == base

    def test_affine_equivariance(self):
        rng = np.random.default_rng(34)
        values = list(rng.normal(size=40))
        targets = [Quarter(1990, 1).shifted(i) for i in (30, 35)]
        base = recursive_ar_forecast(series(values), [t.index for t in targets], ARSpec(p=1))
        a, b = 2.0, -3.0
        mapped = recursive_ar_forecast(
            series([a * v + b for v in values]), [t.index for t in targets], ARSpec(p=1)
        )
        for target in targets:
            assert mapped[target] == pytest.approx(a * base[target] + b, abs=1e-8)

    def test_insufficient_presample_names_target(self):
        s = series([1.0, 2.0, 1.5, 2.5, 1.8])
        target = Quarter(1990, 1).shifted(4)
        with pytest.raises(EstimationError, match=str(target)):
            recursive_ar_forecast(s, [target.index], ARSpec(p=1))

    def test_reselection_runs(self):
        rng = np.random.default_rng(35)
        s = series(rng.normal(size=60))
        targets = [Quarter(1990, 1).shifted(i) for i in (50, 55)]
        spec = ARSpec(reselect=True, max_lag=3, criterion="SIC")
        forecasts = recursive_ar_forecast(s, [t.index for t in targets], spec)
        assert {quarter for quarter, _ in forecasts.items()} == set(targets)

    def test_reselection_keeps_presample_for_earliest_target(self):
        # A persistent AR(1): the criterion prefers p > 0 whenever it may pick it.
        rng = np.random.default_rng(36)
        values = [0.0]
        for _ in range(39):
            values.append(0.9 * values[-1] + rng.normal())
        s = series(values)
        targets = [Quarter(1990, 1).shifted(i) for i in range(10, 40)]
        forecasts = recursive_ar_forecast(s, [t.index for t in targets], ARSpec(reselect=True))
        assert {quarter for quarter, _ in forecasts.items()} == set(targets)
