"""Per-quarter cross-sectional moments of the forecast panel and error summaries.

Central moments are population (1/N) moments; kurtosis is reported in excess
form (normal = 0).  The per-quarter error is the cross-sectional RMSE against
the published actual, and its unweighted average across quarters is the ARMSE.
"""
from __future__ import annotations

import math
import warnings
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .panel import ForecastPanel, QuarterSeries, block_sums, group_cells
from .quarters import ReleaseKind, quarter_label


def quarter_stats(panel: ForecastPanel, actuals: QuarterSeries, release: ReleaseKind) -> SimpleNamespace:
    """Per-quarter cross-sectional RMSE and moments for one release, as aligned columns in quarter order.

    The columns are ``quarter`` (the quarter index), ``n``, ``rmse``,
    ``std_dev`` (population), ``skewness`` (m3/m2^1.5; NaN for n < 3 or a
    degenerate cross-section) and ``excess_kurtosis`` (m4/m2^2 - 3; NaN for
    n < 4 or a degenerate cross-section).  A cross-section is degenerate when
    m2^2 is 0: m2 is 0 or its powers underflow.  The deviations and their
    powers are taken over the whole release at once, and each quarter's
    moments are their ``block_sums`` over its size.  Quarters with forecasts
    but no published actual are excluded with a warning.
    """
    rows = panel.for_release(release)
    quarters, values, bounds = group_cells(rows.quarter, rows.value)
    n, actual = np.diff(bounds), actuals.at(quarters)
    rmses = rmse(values - np.repeat(actual, n), bounds)
    deviation = values - np.repeat(block_sums(values, bounds) / n, n)
    m2, m3, m4 = (block_sums(deviation**k, bounds) / n for k in (2, 3, 4))
    # Python's float power, as one quarter at a time takes it: numpy's SIMD power may round otherwise.
    m2_squared, m2_three_halves = (np.array([m**p for m in m2.tolist()], dtype=float) for p in (2, 1.5))
    skewness, kurtosis = np.full((2, n.size), np.nan)
    shaped = (m2_squared > 0.0) & (n >= 3)
    with np.errstate(invalid="ignore"):  # inf / inf where a cross-section overflows: NaN, as in Python
        skewness[shaped] = m3[shaped] / m2_three_halves[shaped]
        shaped &= n >= 4
        kurtosis[shaped] = m4[shaped] / m2_squared[shaped] - 3.0
    published = ~np.isnan(actual)
    for index in quarters[~published].tolist():
        warnings.warn(f"no actual for {quarter_label(index)} (release {release.value}); quarter excluded")
    return SimpleNamespace(quarter=quarters[published], n=n[published], rmse=rmses[published],
                           std_dev=np.sqrt(m2[published]), skewness=skewness[published],
                           excess_kurtosis=kurtosis[published])


def rmse(errors: np.ndarray, bounds: np.ndarray | None = None):
    """Root mean square of the errors, or of each non-empty block ``errors[bounds[i]:bounds[i + 1]]``.

    A block's mean square is its ``block_sums`` over its size.
    """
    if bounds is None:
        return math.sqrt(float(np.mean(errors**2)))
    return np.sqrt(block_sums(errors**2, bounds) / np.diff(bounds))


def armse(rmses: Sequence[float]) -> float:
    """Unweighted mean of per-quarter RMSE values (``quarter_stats(...).rmse``)."""
    if not len(rmses):
        raise ValueError("armse requires at least one quarter")
    return float(np.mean(rmses))
