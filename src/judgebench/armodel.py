"""Recursive autoregressive baseline forecasts for the release series.

Each release series is forecast from its own history with an expanding
estimation window, so forecasts never see data at or after their target.
Missing values are filled beforehand by linear interpolation across each gap
inside the series' span.  Lag orders are chosen by SIC.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EstimationError, IngestionError
from .linreg import RegressionFit, ols
from .panel import QuarterSeries
from .quarters import quarter_label

DEFAULT_MAX_GAP = 3
DEFAULT_MAX_LAG = 8
MIN_PRESAMPLE = 10  # observations beyond the lag order required before a target


def fill_missing(series: QuarterSeries) -> QuarterSeries:
    """Fill the gaps inside the series' span by linear interpolation.

    The result covers the first through the last quarter the series has.  A
    run of more than ``DEFAULT_MAX_GAP`` consecutive missing quarters is an
    error.
    """
    present_at = series.quarters()
    if not present_at.size:
        raise IngestionError("cannot fill an empty series")
    lo = int(present_at[0])
    values = series.at(np.arange(lo, int(present_at[-1]) + 1))
    missing = np.isnan(values)
    pos = np.arange(values.size)
    prev = np.maximum.accumulate(np.where(missing, -1, pos))  # the last present position so far
    after = np.minimum.accumulate(np.where(missing, values.size, pos)[::-1])[::-1]  # the next one
    run = after - prev - 1
    too_long = missing & (run > DEFAULT_MAX_GAP)
    if too_long.any():
        at = int(np.argmax(too_long))
        raise IngestionError(
            f"interior gap of {run[at]} quarters at {quarter_label(lo + at)} exceeds the limit of {DEFAULT_MAX_GAP}")
    left, right = values[prev[missing]], values[after[missing]]
    values[missing] = left + (right - left) * (pos - prev)[missing] / (run + 1)[missing]
    return QuarterSeries(start=lo, values=values)


def _contiguous_values(series: QuarterSeries, first: int, last: int) -> np.ndarray:
    """The values of quarter indexes first..last, which must all be present."""
    values = series.at(np.arange(first, last + 1))
    if np.isnan(values).any():
        gap = quarter_label(first + int(np.argmax(np.isnan(values))))
        raise EstimationError(f"series has a gap at {gap}; fill missing values first")
    return values


def _ar_fit(values: np.ndarray, p: int, starts: np.ndarray, ends: np.ndarray) -> tuple[RegressionFit, np.ndarray]:
    """AR(p) with intercept over many windows of ``values`` as one stack of ``ols`` fits.

    Row i of the stack covers t = starts[i]..ends[i]-1 (starts[i] >= p); the
    rows after its window are zero and counted out through the mask.  Returns
    the fit and the stacked response.
    """
    t = starts[:, None] + np.arange(np.max(ends - starts))
    mask = t < ends[:, None]
    lagged = values[np.where(mask, t, p)[..., None] - np.arange(p + 1)]  # y_t, y_t-1, ..., y_t-p
    lagged[~mask] = 0.0
    y = lagged[..., 0]
    return ols(np.concatenate([mask[..., None].astype(float), lagged[..., 1:]], axis=-1), y, mask), y


def _select_orders(values: np.ndarray, max_lags: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The SIC order of each series values[:ends[i]], among 0..max_lags[i].

    Every candidate order of a series is fit on its common effective sample
    t = max_lags[i]..ends[i]-1, one stack per order over all series.  A
    rank-deficient order is not a candidate; ties break toward the smaller order.
    """
    t_eff = ends - max_lags
    short = t_eff <= max_lags + 1  # some candidate would have no more observations than parameters
    if short.any():
        at = int(np.argmax(short))
        raise EstimationError(f"series of length {ends[at]} too short for max_lag {max_lags[at]}")
    best, best_crit = np.zeros(ends.size, dtype=np.int64), np.full(ends.size, np.inf)
    for p in range(int(np.max(max_lags)) + 1):
        rows = np.flatnonzero(max_lags >= p)
        fit, y = _ar_fit(values, p, max_lags[rows], ends[rows])
        # Rounding-level residuals on an exact fit count as zero, so the
        # cross-order tie resolves to the smallest order achieving it.
        rss = np.where(fit.rss <= 1e-24 * np.maximum(np.vecdot(y, y), 1e-300), 0.0, fit.rss)
        n = t_eff[rows]
        with np.errstate(divide="ignore"):
            crit = np.log(rss / n) + (p + 1) * np.log(n) / n  # NaN for a deficient fit
        better = crit < best_crit[rows]
        best[rows[better]], best_crit[rows[better]] = p, crit[better]
    return best


def select_lag(values: Sequence[float] | QuarterSeries, max_lag: int = DEFAULT_MAX_LAG) -> int:
    """SIC lag selection on a common effective sample.

    The first ``max_lag`` observations are held out as presample for every
    candidate order, so every candidate's SIC is computed on the same sample,
    which must hold more observations than the largest order has parameters.
    A rank-deficient order is not a candidate; ties break toward the smaller order.
    """
    if isinstance(values, QuarterSeries):
        values = _contiguous_values(values, values.start, values.start + values.values.size - 1)
    values = np.asarray(values, dtype=float)
    return int(_select_orders(values, np.array([max_lag]), np.array([values.size]))[0])


class ARForecasts(QuarterSeries):
    """One-step forecasts by target quarter; ``p_used[i]`` is the lag order fit for ``values[i]`` (-1: none)."""

    def __init__(self, start: int, values: np.ndarray, p_used: np.ndarray):
        super().__init__(start, values)
        self.p_used = p_used


def recursive_ar_forecast(series: QuarterSeries, lag: int | None = 1) -> ARForecasts:
    """One-step AR forecasts with an expanding estimation window per target.

    ``lag`` is the AR order, in 0..``DEFAULT_MAX_LAG``, or None to choose each
    target's order by SIC.  The targets are every quarter of the series with
    at least ``MIN_PRESAMPLE`` (plus ``lag`` for a fixed order) observations
    before it, through the series' last quarter.  For each target the model
    is fit on observations from the first quarter of the series through the
    quarter before the target.  The targets that share an order are fit as
    one stack, and a rank-deficient AR(p) fit falls back to AR(p-1), down to
    the mean at p = 0.
    """
    if lag is not None and not 0 <= lag <= DEFAULT_MAX_LAG:
        raise ValueError(f"lag order must be in 0..{DEFAULT_MAX_LAG}, got {lag}")
    present = series.quarters()
    need = MIN_PRESAMPLE + (lag or 0)
    start, end = (int(present[0]), int(present[-1]) + 1) if present.size else (0, 0)
    sizes = np.arange(need, end - start)  # observations strictly before each target
    out = ARForecasts(start=start + need, values=np.full(sizes.size, np.nan),
                      p_used=np.full(sizes.size, -1, dtype=np.int64))
    if not sizes.size:
        return out
    full = _contiguous_values(series, start, end - 2)
    if lag is None:
        # Cap the candidate orders so that whichever is chosen has its presample
        # and every candidate more observations than parameters.
        caps = np.minimum(sizes - MIN_PRESAMPLE, (sizes - 2) // 2).clip(max=DEFAULT_MAX_LAG)
        orders = _select_orders(full, caps, sizes)
    else:
        orders = np.full(sizes.size, lag)
    # Deviations from the first value: a constant stretch fits zeros and forecasts its value exactly.
    deviations = full - full[0]
    for p in range(int(np.max(orders)), -1, -1):
        rows = np.flatnonzero(orders == p)
        if not rows.size:
            continue
        coef = _ar_fit(deviations, p, np.full(rows.size, p), sizes[rows])[0].coefficients
        deficient = np.isnan(coef[:, 0])
        orders[rows[deficient]] = p - 1
        rows, coef = rows[~deficient], coef[~deficient]
        x_next = np.concatenate([np.ones((rows.size, 1)), deviations[sizes[rows, None] - np.arange(1, p + 1)]], axis=1)
        out.values[rows] = full[0] + np.vecdot(coef, x_next)
        out.p_used[rows] = p
    return out
