"""Data model, ingestion, cleaning and participation accounting for the forecast panel.

The raw panel may contain several forecasts for the same (economist, quarter,
release) key and forecasts attributed only to a firm.  ``clean_panel`` resolves
both deterministically and logs every dropped record.
"""
from __future__ import annotations

import csv
import math
import statistics
import sys
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import IngestionError
from .quarters import Quarter, ReleaseKind, parse_quarter, quarter_range

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


@dataclass(frozen=True, slots=True)
class ForecastRecord:
    """One point backcast reported by an economist."""

    economist_id: str
    firm_id: str
    quarter: Quarter
    release: ReleaseKind
    value: float
    report_date: date | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise IngestionError(f"non-finite forecast value for {self.economist_id} {self.quarter}")


class ForecastPanel:
    """Unbalanced panel of forecasts, indexed by (economist, quarter, release)."""

    def __init__(self, records: Iterable[ForecastRecord]):
        # Lookup indexes are built lazily: most call sites touch one or two of
        # them, and large panels are rebuilt often during simulation studies.
        self.records: tuple[ForecastRecord, ...] = tuple(records)
        self._index_cache: dict[tuple[str, Quarter, ReleaseKind], list[ForecastRecord]] | None = None
        self._by_release_cache: dict[ReleaseKind, list[ForecastRecord]] | None = None
        self._by_quarter_cache: dict[tuple[Quarter, ReleaseKind], list[float]] | None = None
        self._by_economist_cache: dict[tuple[str, ReleaseKind], dict[Quarter, float]] | None = None

    @property
    def _index(self) -> dict[tuple[str, Quarter, ReleaseKind], list[ForecastRecord]]:
        if self._index_cache is None:
            index: dict[tuple[str, Quarter, ReleaseKind], list[ForecastRecord]] = {}
            for rec in self.records:
                index.setdefault((rec.economist_id, rec.quarter, rec.release), []).append(rec)
            self._index_cache = index
        return self._index_cache

    @property
    def _by_release(self) -> dict[ReleaseKind, list[ForecastRecord]]:
        if self._by_release_cache is None:
            by_release: dict[ReleaseKind, list[ForecastRecord]] = {}
            for rec in self.records:
                by_release.setdefault(rec.release, []).append(rec)
            self._by_release_cache = by_release
        return self._by_release_cache

    @property
    def _by_quarter(self) -> dict[tuple[Quarter, ReleaseKind], list[float]]:
        if self._by_quarter_cache is None:
            by_quarter: dict[tuple[Quarter, ReleaseKind], list[float]] = {}
            for rec in self.records:
                by_quarter.setdefault((rec.quarter, rec.release), []).append(rec.value)
            self._by_quarter_cache = by_quarter
        return self._by_quarter_cache

    @property
    def _by_economist(self) -> dict[tuple[str, ReleaseKind], dict[Quarter, float]]:
        if self._by_economist_cache is None:
            by_economist: dict[tuple[str, ReleaseKind], dict[Quarter, float]] = {}
            for rec in self.records:
                by_economist.setdefault((rec.economist_id, rec.release), {})[rec.quarter] = rec.value
            self._by_economist_cache = by_economist
        return self._by_economist_cache

    def __len__(self) -> int:
        return len(self.records)

    def get(self, economist_id: str, quarter: Quarter, release: ReleaseKind) -> ForecastRecord | None:
        recs = self._index.get((economist_id, quarter, release))
        if not recs:
            return None
        if len(recs) > 1:
            raise IngestionError(f"panel not cleaned: duplicate key ({economist_id}, {quarter}, {release})")
        return recs[0]

    def records_for_release(self, release: ReleaseKind) -> list[ForecastRecord]:
        return list(self._by_release.get(release, ()))

    def quarters(self, release: ReleaseKind | None = None) -> list[Quarter]:
        if release is None:
            return sorted({q for q, _ in self._by_quarter})
        return sorted({q for q, rel in self._by_quarter if rel == release})

    def economists(self, release: ReleaseKind | None = None) -> list[str]:
        if release is None:
            return sorted({e for e, _ in self._by_economist})
        return sorted({e for e, rel in self._by_economist if rel == release})

    def values_for_quarter(self, quarter: Quarter, release: ReleaseKind) -> list[float]:
        return list(self._by_quarter.get((quarter, release), ()))

    def series_for(self, economist_id: str, release: ReleaseKind) -> dict[Quarter, float]:
        """This economist's forecasts for one release, keyed by quarter."""
        return dict(self._by_economist.get((economist_id, release), {}))


class CleaningAction(str, Enum):
    DROPPED_DUPLICATE = "dropped-duplicate"
    DROPPED_UNATTRIBUTED = "dropped-unattributed"


@dataclass(frozen=True)
class CleaningLogEntry:
    action: CleaningAction
    record: ForecastRecord


@dataclass
class CleaningLog:
    entries: list[CleaningLogEntry] = field(default_factory=list)

    def dropped_count(self) -> int:
        return len(self.entries)  # every cleaning action drops a record

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


def load_actuals(source, release: ReleaseKind) -> ActualSeries:
    """Read the actuals CSV (header quarter,release,value) and keep one release.

    Rows for other releases are ignored; a duplicate (quarter, release) row
    anywhere in the file is an error.
    """

    def parse_row(row):
        return parse_quarter(row["quarter"]), ReleaseKind.from_token(row["release"]), _parse_value(row["value"])

    seen: set[tuple[Quarter, ReleaseKind]] = set()
    values: dict[Quarter, float] = {}
    for where, (quarter, row_release, value) in _parse_rows(source, ACTUALS_HEADER, "actuals", parse_row):
        if (quarter, row_release) in seen:
            raise IngestionError(f"{where}: duplicate actuals row for {quarter} release {row_release.value}")
        seen.add((quarter, row_release))
        if row_release == release:
            values[quarter] = value
    return ActualSeries(release=release, values=values)


def load_forecasts(source) -> ForecastPanel:
    """Read the forecasts CSV into a raw (uncleaned) panel.

    Records share one object per distinct quarter and id, which keeps the
    panel's memory proportional to its values rather than its tokens.
    """
    quarters: dict[str, Quarter] = {}

    def parse_row(row):
        token = row["quarter"]
        if token not in quarters:
            quarters[token] = parse_quarter(token)
        return ForecastRecord(
            economist_id=sys.intern(row["economist_id"].strip()),
            firm_id=sys.intern(row["firm_id"].strip()),
            quarter=quarters[token],
            release=ReleaseKind.from_token(row["release"]),
            value=_parse_value(row["value"]),
            report_date=_parse_date(row["report_date"]),
        )

    return ForecastPanel(rec for _, rec in _parse_rows(source, FORECASTS_HEADER, "forecasts", parse_row))


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
    """Deduplicate the panel and drop firm-only records, logging every drop.

    Duplicate (economist, quarter, release) keys are resolved by keeping the
    record with the latest report_date (undated records sort last), breaking
    ties by smallest absolute deviation from the raw within-quarter median and
    finally by input order.  Records without an economist id are dropped.
    """
    log = CleaningLog()
    attributed: list[tuple[int, ForecastRecord]] = []
    for pos, rec in enumerate(raw.records):
        if not rec.economist_id:
            log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_UNATTRIBUTED, rec))
        else:
            attributed.append((pos, rec))

    # Raw within-quarter medians (per release) over attributed records.
    by_quarter: dict[tuple[Quarter, ReleaseKind], list[float]] = {}
    for _, rec in attributed:
        by_quarter.setdefault((rec.quarter, rec.release), []).append(rec.value)
    medians = {key: statistics.median(vals) for key, vals in by_quarter.items()}

    groups: dict[tuple[str, Quarter, ReleaseKind], list[tuple[int, ForecastRecord]]] = {}
    for pos, rec in attributed:
        groups.setdefault((rec.economist_id, rec.quarter, rec.release), []).append((pos, rec))

    kept: list[tuple[int, ForecastRecord]] = []
    for key, members in groups.items():
        if len(members) == 1:
            kept.append(members[0])
            continue
        median = medians[(key[1], key[2])]

        def sort_key(item):
            pos, rec = item
            # Latest date first; None dates last; then closest to median; then input order.
            date_rank = rec.report_date.toordinal() if rec.report_date is not None else -1
            return (-date_rank, abs(rec.value - median), pos)

        ordered = sorted(members, key=sort_key)
        kept.append(ordered[0])
        for _, rec in ordered[1:]:
            log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_DUPLICATE, rec))

    kept.sort(key=lambda item: item[0])
    return ForecastPanel(rec for _, rec in kept), log


def participation_share(
    panel: ForecastPanel,
    economist_id: str,
    release: ReleaseKind,
    sample: tuple[Quarter, Quarter],
) -> float:
    """Fraction of sample quarters for which this economist has a record."""
    first, last = sample
    quarters = list(quarter_range(first, last))
    covered = panel.series_for(economist_id, release)
    hits = sum(1 for q in quarters if q in covered)
    return hits / len(quarters)


@dataclass(frozen=True)
class JointCoverage:
    """Counts of (economist, quarter) cells covering release subsets."""

    pair_12: int
    pair_13: int
    pair_23: int
    all_three: int


def joint_coverage(panel: ForecastPanel) -> JointCoverage:
    """Count (economist, quarter) cells with forecasts for multiple releases."""
    cells: dict[tuple[str, Quarter], set[int]] = {}
    for rec in panel.records:
        cells.setdefault((rec.economist_id, rec.quarter), set()).add(rec.release.value)
    pair_12 = pair_13 = pair_23 = all_three = 0
    for releases in cells.values():
        if {1, 2} <= releases:
            pair_12 += 1
        if {1, 3} <= releases:
            pair_13 += 1
        if {2, 3} <= releases:
            pair_23 += 1
        if {1, 2, 3} <= releases:
            all_three += 1
    return JointCoverage(pair_12, pair_13, pair_23, all_three)
