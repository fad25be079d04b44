"""Recursive autoregressive baseline forecasts for the release series.

Each release series is forecast from its own history with an expanding
estimation window, so forecasts never see data at or after their target.
Missing values are filled beforehand (linear interpolation inside the span,
constant extrapolation at the edges).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, IngestionError
from .panel import ActualSeries, QuarterSeries
from .quarters import Quarter

DEFAULT_MAX_GAP = 3
DEFAULT_MAX_LAG = 8
CRITERIA = ("AIC", "SIC", "HQ")
MIN_PRESAMPLE = 10  # observations beyond the lag order required before a target


@dataclass(frozen=True)
class ARSpec:
    """Autoregression settings: lag order, estimation start, optional per-target reselection."""

    p: int = 1
    start: Quarter | None = None  # default: first observation of the series
    reselect: bool = False
    max_lag: int = DEFAULT_MAX_LAG
    criterion: str = "SIC"

    def __post_init__(self):
        if self.p < 0 or self.p > self.max_lag:
            raise ValueError(f"lag order must be in 0..{self.max_lag}, got {self.p}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")


def fill_missing(
    series: ActualSeries,
    first: Quarter | None = None,
    last: Quarter | None = None,
    max_gap: int = DEFAULT_MAX_GAP,
) -> ActualSeries:
    """Fill gaps: linear interpolation inside the span, constant values at edges.

    The result covers ``first`` through ``last``, by default the first and
    last quarters the series has.  A run of more than ``max_gap`` consecutive
    interior missing quarters is an error.  The indexes of the filled
    quarters are added to the result's ``filled``.
    """
    present_at = series.quarters()
    if not present_at.size:
        raise IngestionError("cannot fill an empty series")
    lo = int(present_at[0]) if first is None else first.index
    hi = int(present_at[-1]) if last is None else last.index
    values = series.at(np.arange(lo, hi + 1))
    present = ~np.isnan(values)
    if not present.any():
        raise IngestionError("no observations inside the requested span")
    pos = np.arange(values.size)
    prev = np.maximum.accumulate(np.where(present, pos, -1))  # the last present position so far
    after = np.minimum.accumulate(np.where(present, pos, values.size)[::-1])[::-1]  # the next one
    missing = ~present
    interior = missing & (prev >= 0) & (after < values.size)
    run = after - prev - 1
    too_long = interior & (run > max_gap)
    if too_long.any():
        at = int(np.argmax(too_long))
        where = Quarter.from_index(lo + at)
        raise IngestionError(f"interior gap of {run[at]} quarters at {where} exceeds the limit of {max_gap}")
    edge = missing & ~interior  # takes the nearest present value
    values[edge] = values[np.where(prev < 0, after, prev)[edge]]
    left, right = values[prev[interior]], values[after[interior]]
    values[interior] = left + (right - left) * (pos - prev)[interior] / (run + 1)[interior]
    filled = series.filled | frozenset((lo + np.flatnonzero(missing)).tolist())
    return ActualSeries(start=lo, values=values, release=series.release, filled=filled)


def _contiguous_values(series: QuarterSeries, first: int, last: int) -> np.ndarray:
    """The values of quarter indexes first..last, which must all be present."""
    values = series.at(np.arange(first, last + 1))
    if np.isnan(values).any():
        gap = Quarter.from_index(first + int(np.argmax(np.isnan(values))))
        raise EstimationError(f"series has a gap at {gap}; fill missing values first")
    return values


def _ar_design(values: np.ndarray, p: int, start_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Design and response for AR(p) with intercept over t = start_index..end."""
    t_idx = np.arange(start_index, values.size)
    columns = [np.ones(t_idx.size)]
    for j in range(1, p + 1):
        columns.append(values[t_idx - j])
    return np.column_stack(columns), values[t_idx]


def select_lag(
    values: Sequence[float] | QuarterSeries,
    max_lag: int = DEFAULT_MAX_LAG,
    criterion: str = "AIC",
) -> int:
    """Information-criterion lag selection on a common effective sample.

    The first ``max_lag`` observations are held out as presample for every
    candidate order, so all criteria are computed on the same sample.  Ties
    break toward the smaller order.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if isinstance(values, QuarterSeries):
        values = _contiguous_values(values, values.start, values.start + values.values.size - 1)
    values = np.asarray(values, dtype=float)
    nobs = values.size
    if nobs <= max_lag + 2:
        raise EstimationError(f"series of length {nobs} too short for max_lag {max_lag}")
    t_eff = nobs - max_lag
    best_p = 0
    best_crit = math.inf
    for p in range(0, max_lag + 1):
        X, y = _ar_design(values, p, max_lag)
        coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((y - X @ coef) ** 2))
        # Rounding-level residuals on an exact fit count as zero, so the
        # cross-order tie resolves to the smallest order achieving it.
        if rss <= 1e-24 * max(float(np.sum(y**2)), 1e-300):
            rss = 0.0
        sigma2 = rss / t_eff
        m = p + 1
        log_sigma2 = math.log(sigma2) if sigma2 > 0 else -math.inf
        if criterion == "AIC":
            crit = log_sigma2 + 2.0 * m / t_eff
        elif criterion == "SIC":
            crit = log_sigma2 + m * math.log(t_eff) / t_eff
        else:  # HQ
            crit = log_sigma2 + 2.0 * m * math.log(math.log(t_eff)) / t_eff
        if crit < best_crit:
            best_crit = crit
            best_p = p
    return best_p


@dataclass(frozen=True, eq=False)
class ARForecasts(QuarterSeries):
    """One-step forecasts by target quarter; ``p_used[i]`` is the lag order fit for ``values[i]`` (-1: none)."""

    p_used: np.ndarray


def recursive_ar_forecast(
    series: QuarterSeries,
    targets: Sequence[int],
    spec: ARSpec = ARSpec(),
) -> ARForecasts:
    """One-step AR forecasts with an expanding estimation window per target.

    ``targets`` are quarter indexes.  For each target the model is fit on
    observations from the estimation start through the quarter before the
    target; at least p + 10 observations must precede the earliest target.
    """
    ordered = np.unique(np.asarray(targets, dtype=np.int64)).tolist()
    first, size = (ordered[0], ordered[-1] + 1 - ordered[0]) if ordered else (0, 0)
    out = ARForecasts(start=first, values=np.full(size, np.nan), p_used=np.full(size, -1, dtype=np.int64))
    if not ordered:
        return out
    start = spec.start.index if spec.start else int(series.quarters()[0])
    full = _contiguous_values(series, start, ordered[-1] - 1)
    # A fixed order grows one Gram matrix over the expanding window instead
    # of refitting from scratch at every target.
    gram: np.ndarray | None = None
    moment: np.ndarray | None = None
    n_rows = 0
    for target in ordered:
        size = target - start  # observations strictly before the target
        history = full[:size]
        p = spec.p
        if spec.reselect:
            # Cap the candidate orders so that whichever is chosen has its presample.
            max_lag = min(spec.max_lag, size - MIN_PRESAMPLE)
            p = select_lag(history, max_lag=max_lag, criterion=spec.criterion) if max_lag >= 0 else 0
        if size < p + MIN_PRESAMPLE:
            raise EstimationError(
                f"only {size} observations before target {Quarter.from_index(target)}; need {p + MIN_PRESAMPLE}"
            )
        if spec.reselect:
            X, y = _ar_design(history, p, p)
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        else:
            if gram is None:
                X, y = _ar_design(history, p, p)
                gram, moment = X.T @ X, X.T @ y
            else:
                for t in range(p + n_rows, size):
                    row = np.concatenate(([1.0], full[t - 1 : t - p - 1 : -1])) if p > 0 else np.ones(1)
                    gram += np.outer(row, row)
                    moment += row * full[t]
            n_rows = size - p
            try:
                coef = np.linalg.solve(gram, moment)
            except np.linalg.LinAlgError:
                coef, _, _, _ = np.linalg.lstsq(gram, moment, rcond=None)
        lags = history[-1 : -p - 1 : -1] if p > 0 else np.empty(0)
        out.values[target - first] = float(coef[0] + coef[1:] @ lags)
        out.p_used[target - first] = p
    return out
