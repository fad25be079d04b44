"""Baseline-relative accuracy comparisons.

RMSEs on common quarters, the one-step Diebold-Mariano equal-accuracy
statistic with squared-error loss, the Harvey-Leybourne-Newbold small-sample
correction, and beat-the-baseline shares per participation threshold.  The
HLN p-value is ``tails.t_test_p_value`` of the statistic against null 0 with
SE 1 and T - 1 degrees of freedom, all forecasters' in one ``hln_correction``.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .descriptive import rmse
from .errors import EstimationError
from .judgment import BaselineSeries, passes_threshold
from .panel import ForecastPanel, QuarterSeries, economist_runs
from .quarters import ReleaseKind
from .tails import t_test_p_value


class AccuracyComparison(NamedTuple):
    economist_id: str
    release: ReleaseKind
    n_common: int
    rmse_self: float
    rmse_baseline: float
    dm_statistic: float | None
    hln_statistic: float | None
    p_value_hln: float | None
    note: str = ""


def _paired_errors(
    forecast: np.ndarray, baseline: np.ndarray, actual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forecaster and baseline errors over the quarters where all three aligned arrays are present."""
    common = ~np.isnan(forecast) & ~np.isnan(baseline) & ~np.isnan(actual)
    if not common.any():
        raise EstimationError("no common quarters for accuracy comparison")
    return forecast[common] - actual[common], baseline[common] - actual[common]


def dm_test(d: Sequence[float]) -> float:
    """One-step Diebold-Mariano statistic for a loss-differential series.

    The long-run variance is the population (1/T) lag-0 autocovariance.
    """
    d = np.asarray(d, dtype=float)
    nobs = d.size
    if nobs < 2:
        raise EstimationError(f"need at least 2 loss differentials, got {nobs}")
    d_bar = d.mean()
    variance = float(np.mean((d - d_bar) ** 2))
    if variance <= 0.0:
        raise EstimationError("degenerate comparison: loss differential has zero variance")
    return float(d_bar / math.sqrt(variance / nobs))


def hln_correction(dm, nobs):
    """One-step Harvey-Leybourne-Newbold corrected statistic and two-sided t(T-1) p-value.

    ``dm`` and ``nobs`` are scalars or arrays of one shape; the results have that shape.
    """
    dm, nobs = np.asarray(dm, dtype=float), np.asarray(nobs)
    statistic = (dm * np.sqrt((nobs - 1) / nobs))[()]
    return statistic, t_test_p_value(statistic, 0.0, 1.0, nobs - 1)


def _comparison(
    economist_id: str,
    release: ReleaseKind,
    forecast: np.ndarray,
    baseline: np.ndarray,
    actual: np.ndarray,
) -> AccuracyComparison:
    """A forecaster's comparison without its HLN statistic and p-value."""
    e_self, e_base = _paired_errors(forecast, baseline, actual)
    d = e_self**2 - e_base**2
    dm = None
    note = ""
    try:
        dm = dm_test(d)
    except EstimationError as exc:
        note = str(exc)
    return AccuracyComparison(
        economist_id, release, e_self.size, rmse(e_self), rmse(e_base), dm, None, None, note
    )


def _with_p_values(comparisons: list[AccuracyComparison]) -> list[AccuracyComparison]:
    """Fill in every HLN statistic and p-value with one ``hln_correction`` call."""
    tested = [i for i, c in enumerate(comparisons) if c.dm_statistic is not None]
    statistics, p_values = hln_correction(np.array([comparisons[i].dm_statistic for i in tested]),
                                          np.array([comparisons[i].n_common for i in tested], dtype=np.int64))
    out = list(comparisons)
    for i, hln, p in zip(tested, statistics.tolist(), p_values.tolist()):
        out[i] = out[i]._replace(hln_statistic=hln, p_value_hln=p)
    return out


def accuracy_table(panel: ForecastPanel, base: BaselineSeries, actuals: QuarterSeries) -> list[AccuracyComparison]:
    """Per-economist accuracy comparisons, in economist-id order.

    The panel must be clean: one row per (economist, quarter, release).  The
    statistics are taken per forecaster and the p-values in one tail call.
    """
    rows = panel.for_release(base.release)
    codes, bounds = economist_runs(rows.economist)
    columns = (rows.value, base.at(rows.quarter), actuals.at(rows.quarter))
    out = []
    for code, lo, hi in zip(codes.tolist(), bounds.tolist(), bounds[1:].tolist()):
        economist_id = panel.economist_ids[code]
        try:
            out.append(_comparison(economist_id, base.release, *(c[lo:hi] for c in columns)))
        except EstimationError:
            continue  # no overlap with the actuals at all
    return _with_p_values(out)


def beat_baseline_share(
    comparisons: Sequence[AccuracyComparison],
    panel: ForecastPanel,
    participation: np.ndarray,
    thresholds: Sequence[float] = (0.10, 0.25, 0.50),
) -> dict[float, float | None]:
    """Share of qualifying forecasters with strictly lower RMSE than the baseline.

    ``comparisons`` is one release's ``accuracy_table`` and ``participation``
    that release's ``participation_share``, indexed by the economist codes of
    ``panel``.  Ties count as not beating.  None when no forecaster qualifies.
    """
    share = dict(zip(panel.economist_ids, participation.tolist()))
    out: dict[float, float | None] = {}
    for threshold in thresholds:
        qualifying = [c for c in comparisons if passes_threshold(share[c.economist_id], threshold)]
        if not qualifying:
            out[threshold] = None
            continue
        beating = sum(1 for c in qualifying if c.rmse_self < c.rmse_baseline)
        out[threshold] = beating / len(qualifying)
    return out
