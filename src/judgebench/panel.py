"""Data model, ingestion, cleaning and participation accounting for the forecast panel.

The panel is one set of aligned numpy columns with a row per forecast.  The
raw panel may contain several forecasts for the same (economist, quarter,
release) key and forecasts attributed only to a firm.  ``clean_panel``
resolves both deterministically and logs every dropped row.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IngestionError
from .quarters import Quarter, ReleaseKind, parse_quarter

ACTUALS_HEADER = ["quarter", "release", "value"]
FORECASTS_HEADER = ["quarter", "release", "economist_id", "firm_id", "value", "report_date"]
SPF_HEADER = ["quarter", "median", "mean"]


@dataclass(frozen=True)
class ActualSeries:
    """Published values of one release vintage, keyed by quarter."""

    release: ReleaseKind
    values: Mapping[Quarter, float]
    filled: frozenset = frozenset()  # quarters whose values were interpolated

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    @property
    def first(self) -> Quarter:
        return min(self.values)

    @property
    def last(self) -> Quarter:
        return max(self.values)

    @property
    def span(self) -> tuple[Quarter, Quarter]:
        return self.first, self.last

    def quarters(self) -> list[Quarter]:
        return sorted(self.values)

    def __len__(self) -> int:
        return len(self.values)


def factorize(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in sorted order, and each element's code into them."""
    table, codes = np.unique(np.asarray(ids, dtype=str), return_inverse=True)
    return tuple(table.tolist()), codes.astype(np.int64)


def cell_key(economist: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """One int64 per (economist code, quarter index) pair, ordered like the pairs."""
    return economist.astype(np.int64) * (1 << 32) + quarter


def cell_medians(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the median value of each.

    An even count takes the midpoint of the two middle values, as
    ``statistics.median`` does.
    """
    order = np.lexsort((value, key))
    keys, start, count = np.unique(key[order], return_index=True, return_counts=True)
    ranked = value[order]
    low, high = ranked[start + (count - 1) // 2], ranked[start + count // 2]
    return keys, np.where(count % 2 == 1, low, (low + high) / 2)


_COLUMNS = ("economist", "firm", "quarter", "release", "value", "report_date")


@dataclass(frozen=True, eq=False)
class ForecastPanel:
    """Unbalanced panel of point backcasts as aligned columns, one row per forecast.

    ``economist`` and ``firm`` are codes into the sorted id tables
    ``economist_ids`` and ``firm_ids``, so code order is id order.  A
    selection (``take``) keeps its parent's tables, so every panel selected
    from one panel shares its codes; a table may hold ids that no row uses.
    ``quarter`` is ``Quarter.index``, ``release`` the release number and
    ``report_date`` a date ordinal, -1 when undated.
    """

    economist_ids: tuple[str, ...]
    firm_ids: tuple[str, ...]
    economist: np.ndarray
    firm: np.ndarray
    quarter: np.ndarray
    release: np.ndarray
    value: np.ndarray
    report_date: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ForecastPanel":
        """Build from ``(economist_id, firm_id, quarter, release, value, report_date)`` rows."""
        rows = list(rows)
        econ, firm, quarter, release, value, dated = zip(*rows) if rows else ((),) * 6
        economist_ids, economist = factorize(econ)
        firm_ids, firm_codes = factorize(firm)
        return cls(
            economist_ids,
            firm_ids,
            economist,
            firm_codes,
            np.array([q.index for q in quarter], dtype=np.int64),
            np.array(release, dtype=np.int64),
            np.array(value, dtype=float),
            np.array([-1 if d is None else d.toordinal() for d in dated], dtype=np.int64),
        )

    def __len__(self) -> int:
        return self.value.size

    def take(self, rows: np.ndarray) -> "ForecastPanel":
        """The rows a boolean mask or an array of positions selects, in that order."""
        return ForecastPanel(self.economist_ids, self.firm_ids, *(getattr(self, c)[rows] for c in _COLUMNS))

    def for_release(self, release: ReleaseKind) -> "ForecastPanel":
        return self.take(self.release == release)

    def quarter_cells(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The distinct quarters in ascending order and each one's values in row order."""
        order = np.argsort(self.quarter, kind="stable")
        quarters, start = np.unique(self.quarter[order], return_index=True)
        return quarters, np.split(self.value[order], start[1:]) if quarters.size else []

    def economist_series(self) -> Iterator[tuple[int, dict[Quarter, float]]]:
        """Each economist's code and forecasts keyed by quarter, in economist-id order."""
        order = np.lexsort((self.quarter, self.economist))
        codes, start = np.unique(self.economist[order], return_index=True)
        quarter_of = {i: Quarter.from_index(i) for i in np.unique(self.quarter).tolist()}
        quarters = [quarter_of[i] for i in self.quarter[order].tolist()]
        values = self.value[order].tolist()
        bounds = [*start.tolist(), order.size]
        for code, lo, hi in zip(codes.tolist(), bounds, bounds[1:]):
            yield code, dict(zip(quarters[lo:hi], values[lo:hi]))


class CleaningAction(str, Enum):
    DROPPED_DUPLICATE = "dropped-duplicate"
    DROPPED_UNATTRIBUTED = "dropped-unattributed"


@dataclass(frozen=True)
class CleaningLogEntry:
    action: CleaningAction
    row: int  # position of the dropped row in the raw panel


@dataclass
class CleaningLog:
    entries: list[CleaningLogEntry] = field(default_factory=list)

    def dropped_count(self) -> int:
        return len(self.entries)  # every cleaning action drops a row

    def __len__(self) -> int:
        return len(self.entries)


def _parse_rows(source, header: Sequence[str], what: str, parse_row: Callable) -> Iterator[tuple[str, object]]:
    """Yield ``(where, parse_row(row))`` for each data row of a CSV source.

    ``where`` names the file and line.  A wrong header, a row with too few or
    too many fields, or a field ``parse_row`` rejects with ValueError raises
    IngestionError naming both.
    """
    is_path = isinstance(source, (str, Path))
    name = str(source) if is_path else getattr(source, "name", what)
    fh = open(source, "r", encoding="utf-8", newline="") if is_path else source
    try:
        reader = csv.DictReader(fh)
        got = reader.fieldnames
        if got is None or list(got) != list(header):
            raise IngestionError(f"{name}: expected header {','.join(header)}, got {got}")
        for row in reader:
            where = f"{name} line {reader.line_num}"
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(header)} fields")
                parsed = parse_row(row)
            except ValueError as exc:
                raise IngestionError(f"{where}: {exc}") from exc
            yield where, parsed
    finally:
        if is_path:
            fh.close()


def _parse_value(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric value {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _parse_date(token: str) -> date | None:
    try:
        return date.fromisoformat(token.strip()) if token.strip() else None
    except ValueError:
        raise ValueError(f"invalid report_date {token!r}") from None


def load_actuals(source) -> dict[ReleaseKind, ActualSeries]:
    """Read the actuals CSV (header quarter,release,value) into one series per release.

    A duplicate (quarter, release) row is an error.
    """

    def parse_row(row):
        return parse_quarter(row["quarter"]), ReleaseKind.from_token(row["release"]), _parse_value(row["value"])

    values: dict[ReleaseKind, dict[Quarter, float]] = {release: {} for release in ReleaseKind}
    for where, (quarter, release, value) in _parse_rows(source, ACTUALS_HEADER, "actuals", parse_row):
        if quarter in values[release]:
            raise IngestionError(f"{where}: duplicate actuals row for {quarter} release {release.value}")
        values[release][quarter] = value
    return {release: ActualSeries(release=release, values=series) for release, series in values.items()}


def load_forecasts(source) -> ForecastPanel:
    """Read the forecasts CSV into a raw (uncleaned) panel, rows in file order."""
    quarters: dict[str, Quarter] = {}

    def parse_row(row):
        token = row["quarter"]
        if token not in quarters:
            quarters[token] = parse_quarter(token)
        return (
            row["economist_id"].strip(),
            row["firm_id"].strip(),
            quarters[token],
            ReleaseKind.from_token(row["release"]),
            _parse_value(row["value"]),
            _parse_date(row["report_date"]),
        )

    return ForecastPanel.from_rows(row for _, row in _parse_rows(source, FORECASTS_HEADER, "forecasts", parse_row))


@dataclass(frozen=True)
class SpfNowcasts:
    """Median and mean SPF nowcast per target quarter."""

    median: Mapping[Quarter, float]
    mean: Mapping[Quarter, float]

    def for_method(self, method: str) -> Mapping[Quarter, float]:
        if method == "median":
            return self.median
        if method == "mean":
            return self.mean
        raise ValueError(f"unknown baseline method {method!r}")


def load_spf(source) -> SpfNowcasts:
    """Read the SPF CSV (header quarter,median,mean)."""

    def parse_row(row):
        return parse_quarter(row["quarter"]), _parse_value(row["median"]), _parse_value(row["mean"])

    median: dict[Quarter, float] = {}
    mean: dict[Quarter, float] = {}
    for where, (quarter, med, avg) in _parse_rows(source, SPF_HEADER, "spf", parse_row):
        if quarter in median:
            raise IngestionError(f"{where}: duplicate spf row for {quarter}")
        median[quarter] = med
        mean[quarter] = avg
    return SpfNowcasts(median=median, mean=mean)


def clean_panel(raw: ForecastPanel) -> tuple[ForecastPanel, CleaningLog]:
    """Deduplicate the panel and drop firm-only rows, logging every drop.

    Duplicate (economist, quarter, release) keys are resolved by keeping the
    row with the latest report_date (undated rows sort last), breaking ties
    by smallest absolute deviation from the raw (quarter, release) median and
    finally by input order.  Rows without an economist id are dropped.  The
    log lists the unattributed rows in input order, then each duplicated
    key's losers, best first, keys in order of first appearance.
    """
    log = CleaningLog()
    named = np.array([bool(e) for e in raw.economist_ids], dtype=bool)[raw.economist]
    for row in np.flatnonzero(~named).tolist():
        log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_UNATTRIBUTED, row))
    pos = np.flatnonzero(named)
    if pos.size == 0:
        return raw.take(pos), log
    econ, quarter, release, value = raw.economist[pos], raw.quarter[pos], raw.release[pos], raw.value[pos]

    # Raw (quarter, release) medians over the attributed rows.
    cell = quarter * 4 + release
    cells, medians = cell_medians(cell, value)
    deviation = np.abs(value - medians[np.searchsorted(cells, cell)])

    order = np.lexsort((pos, deviation, -raw.report_date[pos], release, quarter, econ))
    rows, econ, quarter, release = pos[order], econ[order], quarter[order], release[order]
    best = np.ones(rows.size, dtype=bool)
    best[1:] = (econ[1:] != econ[:-1]) | (quarter[1:] != quarter[:-1]) | (release[1:] != release[:-1])
    first_seen = np.minimum.reduceat(rows, np.flatnonzero(best))[np.cumsum(best) - 1]
    in_log_order = np.argsort(first_seen, kind="stable")
    for row in rows[in_log_order][~best[in_log_order]].tolist():
        log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_DUPLICATE, row))
    return raw.take(np.sort(rows[best])), log


def participation_share(
    panel: ForecastPanel,
    release: ReleaseKind,
    sample: tuple[Quarter, Quarter] | None = None,
) -> np.ndarray:
    """Every economist's share of the sample quarters with a forecast for this release.

    Indexed by economist code.  The sample defaults to the release's first to
    last quarter in the panel; a release without forecasts gives all zeros.
    The panel must be clean: one row per (economist, quarter, release).
    """
    rows = panel.release == release
    if sample is None:
        if not rows.any():
            return np.zeros(len(panel.economist_ids))
        first, last = panel.quarter[rows].min(), panel.quarter[rows].max()
    else:
        first, last = sample[0].index, sample[1].index
        if last < first:
            raise ValueError(f"empty quarter range: {sample[0]}..{sample[1]}")
    rows &= (panel.quarter >= first) & (panel.quarter <= last)
    return np.bincount(panel.economist[rows], minlength=len(panel.economist_ids)) / (last - first + 1)


@dataclass(frozen=True)
class JointCoverage:
    """Counts of (economist, quarter) cells covering release subsets."""

    pair_12: int
    pair_13: int
    pair_23: int
    all_three: int


def joint_coverage(panel: ForecastPanel) -> JointCoverage:
    """Count (economist, quarter) cells with forecasts for multiple releases."""
    cells, cell = np.unique(cell_key(panel.economist, panel.quarter), return_inverse=True)
    releases = np.zeros(cells.size, dtype=np.int64)  # one bit per release
    np.bitwise_or.at(releases, cell, np.left_shift(1, panel.release - 1))

    def count(bits: int) -> int:
        return int(np.count_nonzero((releases & bits) == bits))

    return JointCoverage(count(0b011), count(0b101), count(0b110), count(0b111))
