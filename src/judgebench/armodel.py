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
from .panel import ActualSeries
from .quarters import Quarter, quarter_range

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

    A run of more than ``max_gap`` consecutive interior missing quarters is an
    error.  Filled quarters are flagged in the result's provenance metadata.
    """
    if not series.values:
        raise IngestionError("cannot fill an empty series")
    first = first or series.first
    last = last or series.last
    quarters = list(quarter_range(first, last))
    present = [q for q in quarters if q in series.values]
    if not present:
        raise IngestionError("no observations inside the requested span")
    values = dict(series.values)
    filled: set[Quarter] = set(series.filled)

    missing_run: list[Quarter] = []
    prev_present: Quarter | None = None
    for q in quarters:
        if q in series.values:
            if missing_run:
                _fill_run(values, filled, missing_run, prev_present, q, series, max_gap)
                missing_run = []
            prev_present = q
        else:
            missing_run.append(q)
    if missing_run:  # trailing edge
        for q in missing_run:
            values[q] = series.values[prev_present]
            filled.add(q)
    return ActualSeries(release=series.release, values=values, filled=frozenset(filled))


def _fill_run(values, filled, run, prev_present, next_present, series, max_gap):
    if prev_present is None:  # leading edge: constant extrapolation
        for q in run:
            values[q] = series.values[next_present]
            filled.add(q)
        return
    if len(run) > max_gap:
        raise IngestionError(
            f"interior gap of {len(run)} quarters at {run[0]} exceeds the limit of {max_gap}"
        )
    left = series.values[prev_present]
    right = series.values[next_present]
    steps = len(run) + 1
    for i, q in enumerate(run, start=1):
        values[q] = left + (right - left) * i / steps
        filled.add(q)


def _contiguous_values(series: ActualSeries, first: Quarter, last: Quarter) -> np.ndarray:
    out = []
    for q in quarter_range(first, last):
        if q not in series.values:
            raise EstimationError(f"series has a gap at {q}; fill missing values first")
        out.append(series.values[q])
    return np.asarray(out, dtype=float)


def _ar_design(values: np.ndarray, p: int, start_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Design and response for AR(p) with intercept over t = start_index..end."""
    t_idx = np.arange(start_index, values.size)
    columns = [np.ones(t_idx.size)]
    for j in range(1, p + 1):
        columns.append(values[t_idx - j])
    return np.column_stack(columns), values[t_idx]


def select_lag(
    values: Sequence[float] | ActualSeries,
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
    if isinstance(values, ActualSeries):
        values = _contiguous_values(values, values.first, values.last)
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


class ARForecasts(dict):
    """One-step forecasts keyed by target quarter; ``p_used`` maps each target to the lag order fit for it."""

    def __init__(self):
        super().__init__()
        self.p_used: dict[Quarter, int] = {}


def recursive_ar_forecast(
    series: ActualSeries,
    targets: Sequence[Quarter],
    spec: ARSpec = ARSpec(),
) -> ARForecasts:
    """One-step AR forecasts with an expanding estimation window per target.

    For each target the model is fit on observations from the estimation start
    through the quarter before the target; at least p + 10 observations must
    precede the earliest target.
    """
    start = spec.start or series.first
    ordered = sorted(targets)
    out = ARForecasts()
    if not ordered:
        return out
    if spec.reselect:
        for target in ordered:
            history = _contiguous_values(series, start, target.predecessor())
            # Cap the candidate orders so that whichever is chosen has its presample.
            max_lag = min(spec.max_lag, history.size - MIN_PRESAMPLE)
            p = select_lag(history, max_lag=max_lag, criterion=spec.criterion) if max_lag >= 0 else 0
            if history.size < p + MIN_PRESAMPLE:
                raise EstimationError(
                    f"only {history.size} observations before target {target}; need {p + MIN_PRESAMPLE}"
                )
            X, y = _ar_design(history, p, p)
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            lags = history[-1 : -p - 1 : -1] if p > 0 else np.empty(0)
            out[target] = float(coef[0] + coef[1:] @ lags)
            out.p_used[target] = p
        return out

    # Fixed order: grow one Gram matrix over the expanding window instead of
    # refitting from scratch at every target.
    p = spec.p
    full = _contiguous_values(series, start, ordered[-1].predecessor())
    base_index = start.index
    gram: np.ndarray | None = None
    moment: np.ndarray | None = None
    n_rows = 0
    for target in ordered:
        size = target.index - base_index  # observations strictly before the target
        if size < p + MIN_PRESAMPLE:
            raise EstimationError(
                f"only {size} observations before target {target}; need {p + MIN_PRESAMPLE}"
            )
        if gram is None:
            X, y = _ar_design(full[:size], p, p)
            gram = X.T @ X
            moment = X.T @ y
            n_rows = size - p
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
        lags = full[size - 1 : size - p - 1 : -1] if p > 0 else np.empty(0)
        out[target] = float(coef[0] + coef[1:] @ lags)
        out.p_used[target] = p
    return out
