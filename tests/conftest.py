"""Shared helpers for building small panels and series in tests."""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from datetime import date
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import numpy as np

from judgebench.errors import EstimationError
from judgebench.judgment import JudgmentPanel
from judgebench.panel import ForecastPanel, QuarterSeries, factorize
from judgebench.panelreg import PersistenceData, fe_estimate
from judgebench.quarters import ReleaseKind


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the run, despite capture."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)


def as_records(record_type, *columns) -> list:
    """The rows of aligned result columns as ``record_type`` tuples, each NaN read as None.

    That is the form the reference loops build, so a battery's columns compare with ``==`` to a loop's records.
    """
    lists = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns]
    return [record_type(*(None if isinstance(x, float) and math.isnan(x) else x for x in row))
            for row in zip(*lists, strict=True)]


def tail_bound(df: float) -> float:
    """The stated relative error bound of the t and F tails: 1e-13 for df <= 1e4, 1e-12 up to 1e6."""
    return 1e-13 if df <= 1e4 else 1e-12


def within_tail_bound(value: float, reference: float, df: float) -> bool:
    """``value`` within the relative bound of ``reference``; below 1e-300 the bound is taken of 1e-300."""
    return abs(value - reference) <= tail_bound(df) * max(abs(reference), 1e-300)


def q(year: int, quarter: int) -> int:
    """The index of this quarter of the year."""
    return year * 4 + quarter - 1


class Row(NamedTuple):
    """One forecast, in the field order ``ForecastPanel.from_rows`` reads."""

    economist_id: str
    quarter: int
    release: ReleaseKind
    value: float
    report_date: date | None = None


def rec(
    econ: str,
    quarter: int,
    value: float,
    release: ReleaseKind = ReleaseKind.FIRST,
    report_date: date | None = None,
) -> Row:
    return Row(econ, quarter, release, value, report_date)


def rows_of(panel: ForecastPanel) -> Iterator[Row]:
    """The panel's rows in order, decoded back to ids and dates."""
    columns = (panel.economist, panel.quarter, panel.release, panel.value, panel.report_date)
    for econ, quarter, release, value, ordinal in zip(*(c.tolist() for c in columns)):
        yield Row(
            panel.economist_ids[econ], quarter, ReleaseKind(release), value,
            date.fromordinal(ordinal) if ordinal > 0 else None,
        )


def row_index(panel: ForecastPanel, econ: str, quarter: int, release: ReleaseKind = ReleaseKind.FIRST) -> int:
    """The position of the panel's one row for this key."""
    (index,) = [
        i for i, r in enumerate(rows_of(panel)) if (r.economist_id, r.quarter, r.release) == (econ, quarter, release)
    ]
    return index


def record(panel: ForecastPanel, econ: str, quarter: int, release: ReleaseKind = ReleaseKind.FIRST) -> Row:
    """The panel's one row for this key."""
    return list(rows_of(panel))[row_index(panel, econ, quarter, release)]


class Judgment(NamedTuple):
    value: float
    neutral: bool


def judgment(jp: JudgmentPanel, econ: str, quarter: int) -> Judgment:
    """The judgment of this economist and quarter in one release's judgment panel."""
    index = row_index(jp.panel, econ, quarter, jp.release)
    return Judgment(float(jp.value[index]), bool(jp.neutral[index]))


def panel_from_values(
    values_by_quarter: dict[int, list[float]],
    release: ReleaseKind = ReleaseKind.FIRST,
) -> ForecastPanel:
    """One economist per cross-section slot, named E0, E1, ..."""
    records = []
    for quarter, values in values_by_quarter.items():
        for i, value in enumerate(values):
            records.append(rec(f"E{i}", quarter, value, release))
    return ForecastPanel.from_rows(records)


class Obs(NamedTuple):
    """One persistence-regression observation."""

    economist_id: str
    quarter: int
    response: float
    regressor: float


def dataset(observations: list[Obs]) -> PersistenceData:
    """The observations as the columns ``fe_estimate`` reads, in the given order (grouped by economist)."""
    _, economist = factorize([o.economist_id for o in observations])
    return PersistenceData(
        economist,
        np.array([o.quarter for o in observations], dtype=np.int64),
        np.array([o.response for o in observations], dtype=float),
        np.array([o.regressor for o in observations], dtype=float),
    )


def entries(result: SimpleNamespace) -> list[tuple]:
    """Each entry of a result's aligned columns, in order, as a named tuple of Python values."""
    record = namedtuple("Entry", vars(result))
    columns = [column.tolist() if isinstance(column, np.ndarray) else column for column in vars(result).values()]
    return [record(*row) for row in zip(*columns, strict=True)]


def fe_fit(data: PersistenceData, spec: str) -> tuple:
    """The one entry of ``fe_estimate([data], spec)``; a fit that failed raises its error as EstimationError."""
    (fit,) = entries(fe_estimate([data], spec))
    if fit.error:
        raise EstimationError(fit.error)
    return fit


def series_from(values: dict[int, float]) -> QuarterSeries:
    """The series holding these quarters' values."""
    return QuarterSeries.from_points(list(values), list(values.values()))


def present(series: QuarterSeries) -> dict[int, float]:
    """Each present quarter of the series and its value, in quarter order."""
    quarters = series.quarters()
    return dict(zip(quarters.tolist(), series.at(quarters).tolist()))


def aligned(*series: dict[int, float] | QuarterSeries) -> list[np.ndarray]:
    """Each series as an array over the union of their quarters, ascending, NaN where absent."""
    points = [present(s) if isinstance(s, QuarterSeries) else s for s in series]
    union = sorted(set().union(*points))
    return [np.array([p.get(quarter, np.nan) for quarter in union]) for p in points]
