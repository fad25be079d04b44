"""Data model, ingestion, cleaning and participation accounting for the forecast panel.

The panel is one set of aligned numpy columns with a row per forecast.  The
raw panel may contain several forecasts for the same (economist, quarter,
release) key and forecasts attributed only to a firm.  ``clean_panel``
resolves both deterministically and logs every dropped row.  Time series
(actuals, SPF nowcasts, baselines, AR forecasts) are ``QuarterSeries``: one
float64 array over a contiguous span of quarters, NaN where a quarter is
absent.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import functools
import itertools
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import IngestionError
from .quarters import Quarter, ReleaseKind, parse_quarter

ACTUALS_HEADER = ["quarter", "release", "value"]
FORECASTS_HEADER = ["quarter", "release", "economist_id", "firm_id", "value", "report_date"]
SPF_HEADER = ["quarter", "median", "mean"]
CHUNK_LINES = 2048  # forecast lines the columnar reader splits at a time


@dataclass(frozen=True, eq=False)
class QuarterSeries:
    """One value per quarter over a contiguous span, NaN where a quarter is absent.

    ``values[i]`` belongs to the quarter whose ``Quarter.index`` is ``start + i``.
    """

    start: int
    values: np.ndarray

    @classmethod
    def from_points(cls, quarters: Sequence[int], values: Sequence[float], **fields):
        """The series with ``values[i]`` at quarter index ``quarters[i]`` and no other quarter."""
        quarters = np.asarray(quarters, dtype=np.int64)
        start = int(quarters.min()) if quarters.size else 0
        data = np.full(int(quarters.max()) + 1 - start if quarters.size else 0, np.nan)
        data[quarters - start] = values
        return cls(start=start, values=data, **fields)

    def at(self, quarters: np.ndarray) -> np.ndarray:
        """The values at these quarter indexes, NaN where absent."""
        pos = np.asarray(quarters, dtype=np.int64) - self.start
        inside = (pos >= 0) & (pos < self.values.size)
        out = np.full(pos.shape, np.nan)
        out[inside] = self.values[pos[inside]]
        return out

    def quarter_index(self) -> np.ndarray:
        """The quarter index of each element of ``values``."""
        return self.start + np.arange(self.values.size)

    def quarters(self) -> np.ndarray:
        """The indexes of the present quarters, ascending."""
        return self.start + np.flatnonzero(~np.isnan(self.values))

    def items(self) -> Iterator[tuple[Quarter, float]]:
        """Each present quarter and its value, in quarter order."""
        present = self.quarters()
        return zip(map(Quarter.from_index, present.tolist()), self.values[present - self.start].tolist())

    def __getitem__(self, quarter: Quarter) -> float:
        value = float(self.at(np.array([quarter.index]))[0])
        if math.isnan(value):
            raise KeyError(quarter)
        return value

    def __contains__(self, quarter: Quarter) -> bool:
        return not math.isnan(self.at(np.array([quarter.index]))[0])


@dataclass(frozen=True, eq=False)
class ActualSeries(QuarterSeries):
    """Published values of one release vintage."""

    release: ReleaseKind
    filled: frozenset = frozenset()  # indexes of quarters whose values were interpolated


def factorize(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in sorted order, and each element's code into them."""
    table, codes = np.unique(np.asarray(ids, dtype=str), return_inverse=True)
    return tuple(table.tolist()), codes.astype(np.int64)


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as ``np.unique`` without flags gives them.

    In numpy 2.4 that ``np.unique`` (and ``np.isin``) imports ``numpy.ma``,
    about 15 ms, to check for a masked array.
    """
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def cell_key(economist: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """One int64 per (economist code, quarter index) pair, ordered like the pairs."""
    return economist.astype(np.int64) * (1 << 32) + quarter


def cell_medians(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the median value of each.

    An even count takes the midpoint of the two middle values, as
    ``statistics.median`` does.  One stable sort groups the rows by key, and
    each cell of two or more rows is then sorted in place, stably, so the
    work and memory stay O(rows) however skewed the cells are.  Equal values
    keep their row order, so in a canonical panel which of 0.0 and -0.0 is
    the median does not depend on row order; NaN sorts last.
    """
    order = np.argsort(key, kind="stable")
    grouped, ranked = key[order], value[order]
    first = np.ones(grouped.size, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    start = np.flatnonzero(first)
    count = np.diff(np.append(start, grouped.size))
    several = count > 1
    for lo, n in zip(start[several].tolist(), count[several].tolist()):
        ranked[lo:lo + n].sort(kind="stable")
    low, high = ranked[start + (count - 1) // 2], ranked[start + count // 2]
    return grouped[start], np.where(count % 2 == 1, low, (low + high) / 2)


def block_sums(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over each block ``values[starts[i]:ends[i]]``.

    That is the sum ``np.mean`` takes, so a block sum over its size has the
    bits of the block's ``np.mean``; ``np.add.reduceat`` sums in another
    order.
    """
    return np.array([np.add.reduce(values[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())], dtype=float)


def economist_runs(economist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The economist code of each run of equal codes, and the run bounds: run i is ``bounds[i]:bounds[i + 1]``.

    Raises ValueError if a code comes back after another, since then its rows would fall into two runs.
    """
    starts = np.flatnonzero(np.diff(economist, prepend=-1))  # codes are non-negative
    if starts.size and np.bincount(economist[starts]).max() > 1:
        raise ValueError("rows must be grouped by economist")
    return economist[starts], np.append(starts, economist.size)


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

    The canonical row order is (release, economist, quarter), as ``from_rows`` and ``clean_panel``
    return it: a release is a slice, its economists are runs, each in quarter order.
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
        """Build from ``(economist_id, firm_id, quarter, release, value, report_date)`` rows, stably sorted."""
        panel = _panel_of_rows(rows)
        return panel.take(np.lexsort((panel.quarter, panel.economist, panel.release)))

    def __len__(self) -> int:
        return self.value.size

    def take(self, rows: np.ndarray) -> "ForecastPanel":
        """The rows a boolean mask or an array of positions selects, in that order."""
        return ForecastPanel(self.economist_ids, self.firm_ids, *(getattr(self, c)[rows] for c in _COLUMNS))

    @functools.cached_property
    def _canonical(self) -> bool:
        """Whether the rows are in canonical order; computed once per panel."""
        release, economist, quarter = (np.diff(c) for c in (self.release, self.economist, self.quarter))
        return bool(np.all((release > 0) | (release == 0) & ((economist > 0) | (economist == 0) & (quarter >= 0))))

    def for_release(self, release: ReleaseKind) -> "ForecastPanel":
        """This release's rows as views; raises ValueError unless the panel is in canonical order."""
        if not self._canonical:
            raise ValueError("panel rows are not in (release, economist, quarter) order")
        lo, hi = np.searchsorted(self.release, [release, release + 1])
        rows = ForecastPanel(self.economist_ids, self.firm_ids, *(getattr(self, c)[lo:hi] for c in _COLUMNS))
        rows.__dict__["_canonical"] = True  # a slice of a canonical panel is canonical
        return rows

    def quarter_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct quarters in ascending order, the values ordered by quarter, and cell bounds.

        Quarter ``quarters[i]`` has the values ``values[bounds[i]:bounds[i + 1]]``.  The sort is stable, so in
        a release of a canonical panel each cell is in economist order and its sums do not depend on row order.
        """
        order = np.argsort(self.quarter, kind="stable")
        quarters, start = np.unique(self.quarter[order], return_index=True)
        return quarters, self.value[order], np.append(start, order.size)


def _panel_of_rows(rows: Iterable[tuple]) -> ForecastPanel:
    """The panel of ``from_rows`` with its rows in input order."""
    rows = list(rows)
    econ, firm, quarter, release, value, dated = zip(*rows) if rows else ((),) * 6
    economist_ids, economist = factorize(econ)
    firm_ids, firm_codes = factorize(firm)
    return ForecastPanel(
        economist_ids,
        firm_ids,
        economist,
        firm_codes,
        np.array([q.index for q in quarter], dtype=np.int64),
        np.array(release, dtype=np.int64),
        np.array(value, dtype=float),
        np.array([-1 if d is None else d.toordinal() for d in dated], dtype=np.int64),
    )


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
    too many fields, a line the csv module cannot read (such as a field over
    its size limit), a byte that is not UTF-8, or a field ``parse_row``
    rejects with ValueError raises IngestionError naming both.
    """
    is_path = isinstance(source, (str, Path))
    name = str(source) if is_path else getattr(source, "name", what)
    fh = open(source, "r", encoding="utf-8", newline="") if is_path else source
    reader = csv.DictReader(fh)
    try:
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
    except csv.Error as exc:  # only the reader raises it; its own line count includes the failed line
        raise IngestionError(f"{name} line {reader.reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised while reading, a chunk ahead of the reader's lines
        raise _not_utf8(name, Path(source).read_bytes() if is_path else None, exc) from None
    finally:
        if is_path:
            fh.close()


def _not_utf8(name: str, data: bytes | None, exc: UnicodeDecodeError) -> IngestionError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte when ``data`` holds the file.

    Lines end at CR LF, CR or LF, as the readers split them.
    """
    if data is not None:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            head = data[:bad.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            return IngestionError(f"{name} line {line}: not UTF-8: {bad.reason} 0x{data[bad.start]:02x}")
    return IngestionError(f"{name}: not UTF-8: {exc.reason}")


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

    points: dict[ReleaseKind, dict[int, float]] = {release: {} for release in ReleaseKind}
    for where, (quarter, release, value) in _parse_rows(source, ACTUALS_HEADER, "actuals", parse_row):
        if quarter.index in points[release]:
            raise IngestionError(f"{where}: duplicate actuals row for {quarter} release {release.value}")
        points[release][quarter.index] = value
    return {
        release: ActualSeries.from_points(list(series), list(series.values()), release=release)
        for release, series in points.items()
    }


def _forecast_rows(source) -> ForecastPanel:
    """The forecasts CSV parsed row by row; errors name the file and line."""
    quarter_of = functools.cache(parse_quarter)

    def parse_row(row):
        return (
            row["economist_id"].strip(),
            row["firm_id"].strip(),
            quarter_of(row["quarter"]),
            ReleaseKind.from_token(row["release"]),
            _parse_value(row["value"]),
            _parse_date(row["report_date"]),
        )

    return _panel_of_rows(row for _, row in _parse_rows(source, FORECASTS_HEADER, "forecasts", parse_row))


class _Irregular(Exception):
    """A forecasts file the columnar reader leaves to the row parser."""


def _sorted_ids(tokens: Iterable[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted table of the stripped tokens, and each code into ``tokens`` moved to a code into it."""
    stripped = [token.strip() for token in tokens]
    ids = sorted(set(stripped))
    rank = {name: i for i, name in enumerate(ids)}
    return tuple(ids), np.array([rank[name] for name in stripped], dtype=np.int64)[codes]


def _forecast_columns(fh) -> ForecastPanel:
    """The forecasts CSV split column by column, ``CHUNK_LINES`` lines at a time.

    Each column maps every raw token to a code in order of first appearance,
    one dict per column over the whole file, and each distinct token is
    parsed once at the end.  Raises _Irregular on anything the plain split
    cannot read as the csv module does, or that the row parser rejects: a
    wrong header, a quote, a carriage return or NUL, a blank line, a wrong
    field count, or a token that does not parse.  A byte that is not UTF-8
    raises UnicodeDecodeError, which the caller leaves to the row parser too.
    """
    if fh.readline().removesuffix("\n") != ",".join(FORECASTS_HEADER):
        raise _Irregular
    width = len(FORECASTS_HEADER)
    code_of = [collections.defaultdict() for _ in range(width)]
    for tokens in code_of:
        tokens.default_factory = tokens.__len__  # a new token's code is the number seen before it
    chunks = [[] for _ in range(width)]
    while lines := list(itertools.islice(fh, CHUNK_LINES)):
        text = "".join(lines)
        if '"' in text or "\r" in text or "\0" in text or set(map(str.count, lines, itertools.repeat(","))) != {5}:
            raise _Irregular
        fields = text.removesuffix("\n").replace("\n", ",").split(",")
        for k, (tokens, column) in enumerate(zip(code_of, chunks)):
            column.append(np.fromiter(map(tokens.__getitem__, fields[k::width]), np.int64, len(lines)))
    if not chunks[0]:
        return _panel_of_rows([])
    quarter, release, econ, firm, value, dated = (np.concatenate(column) for column in chunks)

    def parsed(k: int, parse: Callable, dtype) -> np.ndarray:
        """Column k's distinct tokens parsed, in code order (a dict iterates in insertion order)."""
        return np.array([parse(token) for token in code_of[k]], dtype=dtype)

    try:
        quarter = parsed(0, lambda token: parse_quarter(token).index, np.int64)[quarter]
        release = parsed(1, lambda token: ReleaseKind.from_token(token).value, np.int64)[release]
        value = parsed(4, _parse_value, float)[value]
        dated = parsed(5, lambda token: -1 if (day := _parse_date(token)) is None else day.toordinal(), np.int64)[dated]
    except ValueError:
        raise _Irregular from None
    economist_ids, economist = _sorted_ids(code_of[2], econ)
    firm_ids, firm_codes = _sorted_ids(code_of[3], firm)
    return ForecastPanel(economist_ids, firm_ids, economist, firm_codes, quarter, release, value, dated)


def load_forecasts(source) -> ForecastPanel:
    """Read the forecasts CSV into a raw (uncleaned) panel, rows in file order.

    The file is split column by column, parsing each distinct token once.  A
    file the split cannot take (see ``_forecast_columns``) is read again by
    the row parser, whose errors name the file and line.
    """
    is_path = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8", newline="") if is_path else contextlib.nullcontext(source) as fh:
        start = fh.tell()
        try:
            return _forecast_columns(fh)
        except (_Irregular, UnicodeDecodeError):
            fh.seek(start)
    return _forecast_rows(source)  # a path is opened again, so a decode error can name its line


@dataclass(frozen=True, eq=False)
class SpfNowcasts:
    """Median and mean SPF nowcast per target quarter."""

    median: QuarterSeries
    mean: QuarterSeries

    def for_method(self, method: str) -> QuarterSeries:
        if method == "median":
            return self.median
        if method == "mean":
            return self.mean
        raise ValueError(f"unknown baseline method {method!r}")


def load_spf(source) -> SpfNowcasts:
    """Read the SPF CSV (header quarter,median,mean)."""

    def parse_row(row):
        return parse_quarter(row["quarter"]), _parse_value(row["median"]), _parse_value(row["mean"])

    points: dict[int, tuple[float, float]] = {}
    for where, (quarter, med, avg) in _parse_rows(source, SPF_HEADER, "spf", parse_row):
        if quarter.index in points:
            raise IngestionError(f"{where}: duplicate spf row for {quarter}")
        points[quarter.index] = med, avg
    quarters, (median, mean) = list(points), zip(*points.values()) if points else ((), ())
    return SpfNowcasts(QuarterSeries.from_points(quarters, median), QuarterSeries.from_points(quarters, mean))


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

    order = np.lexsort((pos, deviation, -raw.report_date[pos], quarter, econ, release))
    rows, econ, quarter, release = pos[order], econ[order], quarter[order], release[order]
    best = np.ones(rows.size, dtype=bool)
    best[1:] = (econ[1:] != econ[:-1]) | (quarter[1:] != quarter[:-1]) | (release[1:] != release[:-1])
    first_seen = np.minimum.reduceat(rows, np.flatnonzero(best))[np.cumsum(best) - 1]
    in_log_order = np.argsort(first_seen, kind="stable")
    for row in rows[in_log_order][~best[in_log_order]].tolist():
        log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_DUPLICATE, row))
    return raw.take(rows[best]), log


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
