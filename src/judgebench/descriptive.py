"""Per-quarter cross-sectional moments of the forecast panel and error summaries.

Central moments are population (1/N) moments; kurtosis is reported in excess
form (normal = 0).  The per-quarter error is the cross-sectional RMSE against
the published actual, and its unweighted average across quarters is the ARMSE.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .panel import ForecastPanel, QuarterSeries, block_sums, group_cells
from .quarters import ReleaseKind, quarter_label


class QuarterStats(NamedTuple):
    quarter: int  # the quarter index
    n: int
    rmse: float
    std_dev: float
    skewness: float | None   # absent for n < 3 or degenerate cross-sections
    excess_kurtosis: float | None  # absent for n < 4 or degenerate cross-sections


def _block_moments(values: np.ndarray, bounds: np.ndarray) -> list[tuple[float, float | None, float | None]]:
    """Population std dev, skewness (m3/m2^1.5) and excess kurtosis (m4/m2^2 - 3) of each block.

    Block i is ``values[bounds[i]:bounds[i + 1]]``.  The deviations and their powers are taken over
    the whole array at once, and each block's moments are their ``block_sums`` over its size.
    """
    n = np.diff(bounds)
    deviation = values - np.repeat(block_sums(values, bounds) / n, n)
    moments = [(block_sums(deviation**k, bounds) / n).tolist() for k in (2, 3, 4)]
    out = []
    for size, m2, m3, m4 in zip(n.tolist(), *moments):
        spread = m2**2 > 0.0  # not degenerate: m2 > 0 and its powers do not underflow to 0
        skew = m3 / m2**1.5 if spread and size >= 3 else None
        kurt = m4 / m2**2 - 3.0 if spread and size >= 4 else None
        out.append((math.sqrt(m2), skew, kurt))
    return out


def quarter_stats(
    panel: ForecastPanel, actuals: QuarterSeries, release: ReleaseKind
) -> list[QuarterStats]:
    """Per-quarter cross-sectional RMSE and moments for one release.

    Quarters with forecasts but no published actual are excluded with a warning.
    """
    rows = panel.for_release(release)
    quarters, values, bounds = group_cells(rows.quarter, rows.value)
    sizes, actual = np.diff(bounds), actuals.at(quarters)
    rmses = rmse(values - np.repeat(actual, sizes), bounds)
    out: list[QuarterStats] = []
    for index, n, error, missing, moments in zip(
        quarters.tolist(), sizes.tolist(), rmses.tolist(), np.isnan(actual).tolist(), _block_moments(values, bounds)
    ):
        if missing:
            warnings.warn(f"no actual for {quarter_label(index)} (release {release.value}); quarter excluded")
            continue
        out.append(QuarterStats(index, n, error, *moments))
    return out


def rmse(errors: np.ndarray, bounds: np.ndarray | None = None):
    """Root mean square of the errors, or of each non-empty block ``errors[bounds[i]:bounds[i + 1]]``.

    A block's mean square is its ``block_sums`` over its size.
    """
    if bounds is None:
        return math.sqrt(float(np.mean(errors**2)))
    return np.sqrt(block_sums(errors**2, bounds) / np.diff(bounds))


def armse(stats: Sequence[QuarterStats]) -> float:
    """Unweighted mean of per-quarter RMSE values."""
    if not stats:
        raise ValueError("armse requires at least one quarter")
    return float(np.mean([s.rmse for s in stats]))
