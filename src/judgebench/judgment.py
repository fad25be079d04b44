"""Common baseline construction and judgment extraction.

The baseline is the per-quarter cross-sectional median (or mean) of the
reported forecasts; a forecaster's judgment is the deviation of their forecast
from it.  Judgments are "neutral" when forecast and baseline coincide once
both are rounded to the reporting grid (default 0.1 percentage points).
"""
from __future__ import annotations

import math
import warnings
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .panel import ForecastPanel, QuarterSeries, cell_medians, group_cells
from .quarters import ReleaseKind, quarter_label

DEFAULT_GRID = 0.1
DEFAULT_THRESHOLDS = (0.10, 0.25, 0.50)
HISTOGRAM_BINS = ("<=20%", "20-40%", "40-60%", "60-80%", ">80%")
HISTOGRAM_EDGES = (0.2, 0.4, 0.6, 0.8)  # upper bound of each bin but the last, inclusive


def grid_round(value, grid: float):
    """Round to the nearest multiple of the reporting grid, halves to even (no-op for grid 0).

    Works on a float or elementwise on an array.
    """
    if grid <= 0:
        return value
    return np.round(np.divide(value, grid)) * grid


def passes_threshold(share, threshold: float):
    """Participation rule: strictly above for the 10% cut, at-least otherwise (elementwise on arrays)."""
    if abs(threshold - 0.10) < 1e-12:
        return share > threshold
    return share >= threshold - 1e-12


class BaselineSeries(QuarterSeries):
    def __init__(self, start: int, values: np.ndarray, release: ReleaseKind):
        super().__init__(start, values)
        self.release = release


class JudgmentPanel:
    """One release's judgments, aligned with the rows of that release's forecasts.

    ``value[i]`` is row i of ``panel`` minus its quarter's baseline, and
    ``neutral[i]`` says whether the two coincide on the reporting grid.
    """

    def __init__(self, release: ReleaseKind, panel: ForecastPanel, value: np.ndarray, neutral: np.ndarray):
        self.release, self.panel, self.value, self.neutral = release, panel, value, neutral

    def __len__(self) -> int:
        return self.value.size


def baseline(panel: ForecastPanel, release: ReleaseKind, method: str = "median") -> BaselineSeries:
    """Per-quarter median or mean of all forecasts (the forecaster's own included).

    The mean is exactly rounded (``math.fsum``), so it does not depend on row order.
    """
    if method not in ("median", "mean"):
        raise ValueError(f"unknown baseline method {method!r}")
    rows = panel.for_release(release)
    if method == "median":
        quarters, values = cell_medians(rows.quarter, rows.value)
    else:
        quarters, cells, bounds = group_cells(rows.quarter, rows.value)
        values = [math.fsum(cells[lo:hi]) / (hi - lo) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    return BaselineSeries.from_points(quarters, values, release=release)


def extract_judgments(
    panel: ForecastPanel, base: BaselineSeries, grid: float = DEFAULT_GRID
) -> JudgmentPanel:
    """Judgment = forecast - baseline for every row of the baseline's release."""
    rows = panel.for_release(base.release)
    levels = base.at(rows.quarter)
    missing = np.isnan(levels)
    if missing.any():
        raise ValueError(f"baseline does not cover {quarter_label(int(rows.quarter[missing][0]))}")
    return JudgmentPanel(
        release=base.release,
        panel=rows,
        value=rows.value - levels,
        neutral=grid_round(rows.value, grid) == grid_round(levels, grid),
    )


def _sign_counts(jp: JudgmentPanel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per economist code: judgments, neutral judgments and negative non-neutral judgments."""
    econ, size = jp.panel.economist, len(jp.panel.economist_ids)
    negative = ~jp.neutral & (jp.value < 0)
    return (
        np.bincount(econ, minlength=size),
        np.bincount(econ[jp.neutral], minlength=size),
        np.bincount(econ[negative], minlength=size),
    )


SIGN_SHARE_COLUMNS = ("mean_negative", "sd_negative", "mean_positive", "sd_positive", "mean_neutral", "sd_neutral")


def sign_shares(
    jp: JudgmentPanel,
    participation: np.ndarray,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> SimpleNamespace:
    """Cross-economist mean and population sd of sign shares, one entry per threshold, as aligned columns.

    ``participation`` is the release's ``participation_share``, indexed by
    the economist codes of ``jp.panel``.  The columns are ``n_economists``
    and the ``SIGN_SHARE_COLUMNS``, NaN where no economist qualifies.  A
    release without forecasts warns once, not once per threshold.
    """
    n, neutral, negative = _sign_counts(jp)
    n_economists = np.zeros(len(thresholds), dtype=np.int64)
    stats = np.full((len(SIGN_SHARE_COLUMNS), len(thresholds)), np.nan)
    if not len(jp):
        warnings.warn(f"release {jp.release.value} has no forecasts")
    for i, threshold in enumerate(thresholds):
        chosen = (n > 0) & passes_threshold(participation, threshold)
        if not chosen.any():
            if len(jp):
                warnings.warn(f"no economist passes threshold {threshold} for release {jp.release.value}")
            continue
        k, neu, neg = n[chosen], neutral[chosen], negative[chosen]
        arr = np.column_stack([neg / k, (k - neu - neg) / k, neu / k])  # one row per economist
        n_economists[i] = k.size
        stats[0::2, i], stats[1::2, i] = arr.mean(axis=0), arr.std(axis=0)  # population sd across economists
    return SimpleNamespace(n_economists=n_economists, **dict(zip(SIGN_SHARE_COLUMNS, stats)))


def negative_share_histogram(
    jp: JudgmentPanel,
    participation: np.ndarray,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> np.ndarray:
    """Qualifying economists binned by the negative share of their non-neutral judgments.

    One row of ``HISTOGRAM_BINS`` counts per threshold.  Economists with only
    neutral judgments are excluded from every bin.
    """
    n, neutral, negative = _sign_counts(jp)
    non_neutral = n - neutral
    binned = non_neutral > 0
    bins = np.searchsorted(HISTOGRAM_EDGES, negative[binned] / non_neutral[binned], side="left")
    counts = np.zeros((len(thresholds), len(HISTOGRAM_BINS)), dtype=np.int64)
    for row, threshold in zip(counts, thresholds):
        row += np.bincount(bins[passes_threshold(participation[binned], threshold)], minlength=len(HISTOGRAM_BINS))
    return counts


class BaselineHitStats(NamedTuple):
    correct: float
    overprediction: float
    underprediction: float


def baseline_hit_stats(
    base: BaselineSeries, actuals: QuarterSeries, grid: float = DEFAULT_GRID
) -> BaselineHitStats:
    """Shares of overlapping quarters where the baseline equals / exceeds / trails the actual.

    Equality is judged on the reporting grid.  The shares are NaN where the
    baseline and the actuals share no quarter.
    """
    actual = actuals.at(base.quarter_index())
    both = ~np.isnan(base.values) & ~np.isnan(actual)
    n = int(np.count_nonzero(both))
    b, y = grid_round(base.values[both], grid), grid_round(actual[both], grid)
    # math.isclose with its default relative tolerance, elementwise
    correct = np.abs(b - y) <= np.maximum(1e-9 * np.maximum(np.abs(b), np.abs(y)), (grid or 1e-12) / 4)
    over = b > y
    counts = [int(np.count_nonzero(m)) for m in (correct, ~correct & over, ~correct & ~over)]
    return BaselineHitStats(*(count / n if n else math.nan for count in counts))
