"""Baseline-relative accuracy comparisons.

RMSEs on common quarters, the one-step Diebold-Mariano equal-accuracy
statistic with squared-error loss, the Harvey-Leybourne-Newbold small-sample
correction, and beat-the-baseline shares per participation threshold.  The
HLN p-value is ``tails.t_test_p_value`` of the statistic against null 0 with
SE 1 and T - 1 degrees of freedom, all forecasters' in one ``hln_correction``.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .descriptive import rmse
from .errors import EstimationError
from .judgment import DEFAULT_THRESHOLDS, BaselineSeries, passes_threshold
from .panel import ForecastPanel, QuarterSeries, block_sums, economist_runs
from .tails import t_test_p_value


def dm_test(d: Sequence[float], bounds: np.ndarray | None = None):
    """One-step Diebold-Mariano statistic for a loss-differential series, or for each block of it.

    Block i is ``d[bounds[i]:bounds[i + 1]]``, not empty.  The long-run variance is the population (1/T)
    lag-0 autocovariance, and a block's mean and variance are ``block_sums`` over its size.  Fewer than
    2 differentials or zero variance raise EstimationError for a single series.  Blocks give the
    statistics and the mask of the tested ones; an untested block's statistic is NaN.
    """
    d = np.asarray(d, dtype=float)
    if bounds is None and d.size < 2:
        raise EstimationError(f"need at least 2 loss differentials, got {d.size}")
    blocks = np.array([0, d.size]) if bounds is None else bounds
    n = np.diff(blocks)
    mean = block_sums(d, blocks) / n
    variance = block_sums((d - np.repeat(mean, n)) ** 2, blocks) / n
    tested = (n >= 2) & ~(variance <= 0.0)
    if bounds is None and not tested[0]:
        raise EstimationError("degenerate comparison: loss differential has zero variance")
    statistic = np.full(n.size, np.nan)
    statistic[tested] = mean[tested] / np.sqrt(variance[tested] / n[tested])
    return (statistic, tested) if bounds is not None else float(statistic[0])


def hln_correction(dm, nobs):
    """One-step Harvey-Leybourne-Newbold corrected statistic and two-sided t(T-1) p-value.

    ``dm`` and ``nobs`` are scalars or arrays of one shape; the results have that shape.
    """
    dm, nobs = np.asarray(dm, dtype=float), np.asarray(nobs)
    statistic = (dm * np.sqrt((nobs - 1) / nobs))[()]
    return statistic, t_test_p_value(statistic, 0.0, 1.0, nobs - 1)


def accuracy_table(panel: ForecastPanel, base: BaselineSeries, actuals: QuarterSeries) -> SimpleNamespace:
    """Per-economist accuracy comparisons over common quarters, as aligned columns in economist-id order.

    The panel must be clean: one row per (economist, quarter, release).  A
    forecaster with no quarter in common with the baseline and the actuals is
    left out.  Each statistic is taken once over the release's common rows,
    economist by economist as blocks, and the p-values in one tail call.
    The columns are ``economist`` (codes into ``panel.economist_ids``),
    ``n_common``, ``rmse_self``, ``rmse_baseline``, ``dm_statistic``,
    ``hln_statistic`` and ``p_value_hln``, NaN where untested, and ``note``,
    a list of str naming why a forecaster is untested ("" where it is tested).
    """
    rows = panel.for_release(base.release)
    codes, bounds = economist_runs(rows.economist)
    forecast, baseline_values, actual = rows.value, base.at(rows.quarter), actuals.at(rows.quarter)
    common = ~np.isnan(forecast) & ~np.isnan(baseline_values) & ~np.isnan(actual)
    kept = np.append(0, np.cumsum(common))[bounds]  # each run's bounds among the common rows
    overlap = np.diff(kept) > 0
    codes, bounds = codes[overlap], np.append(kept[:-1][overlap], kept[-1])
    e_self, e_base = (forecast - actual)[common], (baseline_values - actual)[common]
    n = np.diff(bounds)
    dm, tested = dm_test(e_self**2 - e_base**2, bounds)  # untested: fewer than 2 differentials, or zero variance
    hln, p_value = hln_correction(dm, n)  # NaN where dm is
    note = ["" if ok else f"need at least 2 loss differentials, got {size}" if size < 2
            else "degenerate comparison: loss differential has zero variance"
            for ok, size in zip(tested.tolist(), n.tolist())]
    return SimpleNamespace(economist=codes, n_common=n, rmse_self=rmse(e_self, bounds),
                           rmse_baseline=rmse(e_base, bounds), dm_statistic=dm, hln_statistic=hln,
                           p_value_hln=p_value, note=note)


def beat_baseline_share(
    table: SimpleNamespace,
    participation: np.ndarray,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> np.ndarray:
    """Share of qualifying forecasters with strictly lower RMSE than the baseline, one per threshold.

    ``table`` is one release's ``accuracy_table`` and ``participation`` that
    release's ``participation_share``, indexed by the panel's economist codes.
    Ties count as not beating.  NaN where no forecaster qualifies.
    """
    share, beating = participation[table.economist], table.rmse_self < table.rmse_baseline
    out = np.full(len(thresholds), np.nan)
    for i, threshold in enumerate(thresholds):
        qualifying = passes_threshold(share, threshold)
        if qualifying.any():
            out[i] = np.count_nonzero(beating & qualifying) / np.count_nonzero(qualifying)
    return out
