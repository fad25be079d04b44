"""Per-quarter cross-sectional moments of the forecast panel and error summaries.

Central moments are population (1/N) moments; kurtosis is reported in excess
form (normal = 0).  The per-quarter error is the cross-sectional RMSE against
the published actual, and its unweighted average across quarters is the ARMSE.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .panel import ActualSeries, ForecastPanel
from .quarters import Quarter, ReleaseKind


@dataclass(frozen=True)
class QuarterStats:
    quarter: Quarter
    n: int
    rmse: float
    std_dev: float
    skewness: float | None   # absent for n < 3 or degenerate cross-sections
    excess_kurtosis: float | None  # absent for n < 4 or degenerate cross-sections


def cross_section_moments(values: Sequence[float]) -> tuple[float, float | None, float | None]:
    """Population std dev, skewness (m3/m2^1.5) and excess kurtosis (m4/m2^2 - 3)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    m = x.mean()
    d = x - m
    m2 = float(np.mean(d**2))
    std = math.sqrt(m2)
    skew = None
    kurt = None
    if m2 > 0.0:
        if n >= 3:
            skew = float(np.mean(d**3)) / m2**1.5
        if n >= 4:
            kurt = float(np.mean(d**4)) / m2**2 - 3.0
    return std, skew, kurt


def quarter_stats(
    panel: ForecastPanel, actuals: ActualSeries, release: ReleaseKind
) -> list[QuarterStats]:
    """Per-quarter cross-sectional RMSE and moments for one release.

    Quarters with forecasts but no published actual are excluded with a warning.
    """
    out: list[QuarterStats] = []
    quarters, cells = panel.for_release(release).quarter_cells()
    for index, actual, values in zip(quarters.tolist(), actuals.at(quarters).tolist(), cells):
        quarter = Quarter.from_index(index)
        if math.isnan(actual):
            warnings.warn(f"no actual for {quarter} (release {release.value}); quarter excluded")
            continue
        errors = values - actual
        rmse = math.sqrt(float(np.mean(errors**2)))
        std, skew, kurt = cross_section_moments(values)
        out.append(QuarterStats(quarter, values.size, rmse, std, skew, kurt))
    return out


def armse(stats: Sequence[QuarterStats]) -> float:
    """Unweighted mean of per-quarter RMSE values."""
    if not stats:
        raise ValueError("armse requires at least one quarter")
    return float(np.mean([s.rmse for s in stats]))


def rmse_series(
    stats_by_release: Mapping[ReleaseKind, Sequence[QuarterStats]],
) -> tuple[list[Quarter], dict[ReleaseKind, np.ndarray]]:
    """Align per-quarter RMSEs across releases on the union of quarters.

    Quarters a release does not cover are NaN, never zero.
    """
    union = sorted({s.quarter for stats in stats_by_release.values() for s in stats})
    aligned: dict[ReleaseKind, np.ndarray] = {}
    for release, stats in stats_by_release.items():
        lookup = {s.quarter: s.rmse for s in stats}
        aligned[release] = np.array([lookup.get(q, np.nan) for q in union])
    return union, aligned
