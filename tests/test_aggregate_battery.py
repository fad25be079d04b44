"""The stacked aggregate battery (table 4) against a per-cell loop (hypothesis).

``loop_aggregate`` is the battery as it ran before its cells were fitted as
one stack per test: per (release, method) cell one RMSE, and one
``efficiency_regression``, Newey-West sandwich and Wald test per test, each
in its own ``try`` block.  It serves as the brute-force reference.
"""
import math
import re
from typing import NamedTuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import judgebench.linreg
from judgebench.errors import EstimationError
from judgebench.descriptive import rmse as series_rmse
from judgebench.judgment import BaselineSeries
from judgebench.linreg import (
    efficiency_regression,
    hac_covariance,
    newey_west_auto_lag,
    test_battery_aggregate as battery_aggregate,
    wald_joint_test,
)
from judgebench.panel import QuarterSeries, SpfNowcasts
from judgebench.quarters import ReleaseKind

from conftest import as_records, q

START = q(2000, 1)
KEYS = [(release, method) for release in ReleaseKind for method in ("median", "mean")]
KINDS = ("random", "constant", "disjoint", "exact")


class AggregateCell(NamedTuple):
    """One (release, method) cell of table 4, None where a value is absent."""

    release: ReleaseKind
    method: str
    unbiasedness_p: float | None
    efficiency_p: float | None
    rmse: float | None
    errors: tuple[str, ...] = ()


def stacked_cells(baselines, columns) -> dict:
    """The battery's columns as one ``AggregateCell`` per key of ``baselines``."""
    errors = [tuple(filter(None, e.split("; "))) for e in columns.errors]
    cells = as_records(AggregateCell, *zip(*baselines), columns.unbiasedness_p, columns.efficiency_p, columns.rmse,
                       errors)
    return dict(zip(baselines, cells))


def loop_aggregate(baselines, actuals, spf, ar_forecasts, hac_lag=None):
    report = {}
    for (release, method), base in baselines.items():
        quarters = base.quarter_index()
        actual = actuals[release].at(quarters)
        errors = []
        unb_p = eff_p = rmse = None
        both = ~np.isnan(base.values) & ~np.isnan(actual)
        if both.any():
            rmse = series_rmse(actual[both] - base.values[both])
        else:
            errors.append("rmse: prediction and actuals share no quarters")
        try:
            fit, design = efficiency_regression(actual, base.values)
            lag = newey_west_auto_lag(fit.nobs) if hac_lag is None else hac_lag
            _, unb_p = wald_joint_test(fit, hac_covariance(fit, design, lag))
        except EstimationError as exc:
            errors.append(f"unbiasedness: {exc}")
        try:
            extra = [spf.for_method(method).at(quarters), ar_forecasts[release].at(quarters)]
            fit, design = efficiency_regression(actual, base.values, extra)
            lag = newey_west_auto_lag(fit.nobs) if hac_lag is None else hac_lag
            _, eff_p = wald_joint_test(fit, hac_covariance(fit, design, lag))
        except EstimationError as exc:
            errors.append(f"efficiency: {exc}")
        report[(release, method)] = AggregateCell(release, method, unb_p, eff_p, rmse, tuple(errors))
    return report


def declared_wording(error: str) -> str:
    """The loop's short-sample error in the wording of the stacked battery (and of table 5)."""
    return re.sub(r"insufficient overlap: need \d+ quarters, have \d+", "too few observations", error)


@st.composite
def worlds(draw):
    """Six cells on actuals, SPF and AR forecasts with gaps; each cell's baseline is of a drawn kind.

    ``random`` is a noisy, biased baseline on a drawn span (short spans give
    too few observations) with gaps, ``constant`` has a slope column
    dependent on the intercept, ``disjoint`` lies after the actuals (no
    common quarter), and ``exact`` equals the actuals, a fit whose Wald test
    gets p = 1.  The first cell in the drawn order is ``exact``.
    """
    span = draw(st.integers(14, 60))
    gap_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    keys = draw(st.permutations(KEYS))
    kinds = ["exact", *draw(st.lists(st.sampled_from(KINDS), min_size=5, max_size=5))]
    hac_lag = draw(st.sampled_from([None, 0, 1, 3, 12, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def with_gaps(values):
        return np.where(rng.random(values.size) < gap_share, np.nan, values)

    actual_values = {release: with_gaps(rng.normal(1.0, 1.0, span)) for release in ReleaseKind}
    actuals = {release: QuarterSeries(START, values) for release, values in actual_values.items()}
    spf = SpfNowcasts(*(QuarterSeries(START, with_gaps(rng.normal(1.0, 1.0, span))) for _ in range(2)))
    ar = {release: QuarterSeries(START, with_gaps(rng.normal(1.0, 1.0, span))) for release in ReleaseKind}

    baselines = {}
    for (release, method), kind in zip(keys, kinds):
        lo = int(rng.integers(0, span - 3))
        hi = int(rng.integers(lo + 3, span + 1))
        actual = actual_values[release][lo:hi]
        values = {
            "random": with_gaps(rng.normal(0.3, 0.3) + rng.uniform(0.6, 1.2) * actual + rng.normal(0.0, 0.5, hi - lo)),
            "constant": np.full(hi - lo, 0.7),
            "disjoint": rng.normal(1.0, 1.0, hi - lo),
            "exact": actual_values[release],
        }[kind]
        start = {"disjoint": START + span + 1, "exact": START}.get(kind, START + lo)
        baselines[(release, method)] = BaselineSeries(start, values, release)
    return baselines, actuals, spf, ar, hac_lag, keys[0]


def close(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and math.isclose(a, b, rel_tol=1e-12))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_stacked_aggregate_matches_per_cell_loop(world):
    *inputs, hac_lag, exact_key = world
    stacked = stacked_cells(inputs[0], battery_aggregate(*inputs, hac_lag=hac_lag))
    loop = loop_aggregate(*inputs, hac_lag=hac_lag)
    assert list(stacked) == list(loop) == list(inputs[0])
    for key, want in loop.items():
        got = stacked[key]
        assert (got.release, got.method) == (want.release, want.method)
        assert got.errors == tuple(declared_wording(e) for e in want.errors), (got, want)
        for field in ("unbiasedness_p", "efficiency_p", "rmse"):
            assert close(getattr(got, field), getattr(want, field)), (got, want, field)
    exact = stacked[exact_key]
    assert exact.rmse == 0.0
    assert exact.unbiasedness_p in (None, 1.0) and exact.efficiency_p in (None, 1.0)


def _fixed_world():
    """Six full cells on 30 quarters: an exact baseline, a constant one, and four noisy ones."""
    rng = np.random.default_rng(19)
    actual = {release: rng.normal(1.0, 1.0, 30) for release in ReleaseKind}
    actuals = {release: QuarterSeries(START, values) for release, values in actual.items()}
    spf = SpfNowcasts(*(QuarterSeries(START, rng.normal(1.0, 1.0, 30)) for _ in range(2)))
    ar = {release: QuarterSeries(START, rng.normal(1.0, 1.0, 30)) for release in ReleaseKind}
    values = {key: actual[key[0]] + rng.normal(0.2, 0.5, 30) for key in KEYS}
    values[KEYS[0]] = actual[KEYS[0][0]]
    values[KEYS[1]] = np.full(30, 0.7)
    baselines = {key: BaselineSeries(START, v, key[0]) for key, v in values.items()}
    return baselines, actuals, spf, ar


def test_fixed_world_cells():
    cells = stacked_cells(_fixed_world()[0], battery_aggregate(*_fixed_world()))
    assert (cells[KEYS[0]].unbiasedness_p, cells[KEYS[0]].efficiency_p) == (1.0, 1.0)
    assert cells[KEYS[1]].errors == (
        "unbiasedness: design column 1 is linearly dependent on earlier columns",
        "efficiency: design column 1 is linearly dependent on earlier columns")
    assert all(cells[key].errors == () and 0.0 <= cells[key].efficiency_p <= 1.0 for key in KEYS[2:])
    # A fixed lag of 30 is not below any cell's 30 quarters; the rank note still comes first.
    cells = stacked_cells(_fixed_world()[0], battery_aggregate(*_fixed_world(), hac_lag=30))
    assert cells[KEYS[1]].errors[0] == "unbiasedness: design column 1 is linearly dependent on earlier columns"
    assert cells[KEYS[2]].errors == (
        "unbiasedness: lag 30 must be smaller than the sample size 30",
        "efficiency: lag 30 must be smaller than the sample size 30")
    assert cells[KEYS[0]].unbiasedness_p is None


def test_one_stacked_fit_per_test(monkeypatch):
    calls = []
    ols = judgebench.linreg.ols
    monkeypatch.setattr(judgebench.linreg, "ols", lambda *args, **kwargs: calls.append(1) or ols(*args, **kwargs))
    battery_aggregate(*_fixed_world())
    assert len(calls) == 2
