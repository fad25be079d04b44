"""Common baseline construction and judgment extraction.

The baseline is the per-quarter cross-sectional median (or mean) of the
reported forecasts; a forecaster's judgment is the deviation of their forecast
from it.  Judgments are "neutral" when forecast and baseline coincide once
both are rounded to the reporting grid (default 0.1 percentage points).
"""
from __future__ import annotations

import math
import warnings
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


class SignShareStats(NamedTuple):
    threshold: float
    n_economists: int
    mean_negative: float
    sd_negative: float
    mean_positive: float
    sd_positive: float
    mean_neutral: float
    sd_neutral: float


def sign_shares(
    jp: JudgmentPanel,
    participation: np.ndarray,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> dict[float, SignShareStats]:
    """Cross-economist mean and population sd of sign shares per threshold.

    ``participation`` is the release's ``participation_share``, indexed by
    the economist codes of ``jp.panel``.
    """
    n, neutral, negative = _sign_counts(jp)
    out: dict[float, SignShareStats] = {}
    for threshold in thresholds:
        chosen = (n > 0) & passes_threshold(participation, threshold)
        if not chosen.any():
            warnings.warn(f"no economist passes threshold {threshold} for release {jp.release.value}")
            out[threshold] = SignShareStats(threshold, 0, *(math.nan,) * 6)
            continue
        k, neu, neg = n[chosen], neutral[chosen], negative[chosen]
        arr = np.column_stack([neg / k, (k - neu - neg) / k, neu / k])  # one row per economist
        means = arr.mean(axis=0)
        sds = arr.std(axis=0)  # population sd across economists
        out[threshold] = SignShareStats(
            threshold, int(k.size), means[0], sds[0], means[1], sds[1], means[2], sds[2]
        )
    return out


def negative_share_histogram(jp: JudgmentPanel, participation: np.ndarray, threshold: float) -> dict[str, int]:
    """Bin qualifying economists by the negative share of their non-neutral judgments.

    Economists with only neutral judgments are excluded from every bin.
    """
    n, neutral, negative = _sign_counts(jp)
    non_neutral = n - neutral
    chosen = (non_neutral > 0) & passes_threshold(participation, threshold)
    bins = np.searchsorted(HISTOGRAM_EDGES, negative[chosen] / non_neutral[chosen], side="left")
    return dict(zip(HISTOGRAM_BINS, np.bincount(bins, minlength=len(HISTOGRAM_BINS)).tolist()))


class BaselineHitStats(NamedTuple):
    correct: float
    overprediction: float
    underprediction: float


def baseline_hit_stats(
    base: BaselineSeries, actuals: QuarterSeries, grid: float = DEFAULT_GRID
) -> BaselineHitStats:
    """Shares of overlapping quarters where the baseline equals / exceeds / trails the actual.

    Equality is judged on the reporting grid.
    """
    actual = actuals.at(base.quarter_index())
    both = ~np.isnan(base.values) & ~np.isnan(actual)
    n = int(np.count_nonzero(both))
    if not n:
        raise ValueError("baseline and actuals share no quarters")
    b, y = grid_round(base.values[both], grid), grid_round(actual[both], grid)
    # math.isclose with its default relative tolerance, elementwise
    correct = np.abs(b - y) <= np.maximum(1e-9 * np.maximum(np.abs(b), np.abs(y)), (grid or 1e-12) / 4)
    over = b > y
    counts = [int(np.count_nonzero(m)) for m in (correct, ~correct & over, ~correct & ~over)]
    return BaselineHitStats(*(count / n for count in counts))
