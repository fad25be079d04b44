"""Data model, ingestion, cleaning and participation accounting for the forecast panel.

The panel is one set of aligned numpy columns with a row per forecast.  The
raw panel may contain several forecasts for the same (economist, quarter,
release) key and forecasts attributed only to a firm.  ``clean_panel``
resolves both deterministically and logs every dropped row.  A quarter is
its integer index (see ``judgebench.quarters``) in every column and series.
Time series (actuals, SPF nowcasts, baselines, AR forecasts) are
``QuarterSeries``: one float64 array over a contiguous span of quarter
indexes, NaN where a quarter is absent.

The three input files go through one CSV reader, ``_read_csv``: the csv
module's dialect (quotes, CRLF; blank lines skipped), a chunk of rows at a
time, each distinct token parsed once.  The first bad row in file order is
named by its line, but a byte that is not UTF-8 is reported before any other
fault.  A file is read once, front to back, so a pipe such as ``/dev/stdin``
is a path like any other.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import re
from datetime import date
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import IngestionError
from .quarters import ReleaseKind, parse_quarter, quarter_label

ACTUALS_HEADER = ["quarter", "release", "value"]
FORECASTS_HEADER = ["quarter", "release", "economist_id", "firm_id", "value", "report_date"]
SPF_HEADER = ["quarter", "median", "mean"]
CHUNK_LINES = 2048  # lines the CSV reader decodes, and rows it codes, at a time
# The largest magnitude an input value may have.  Fourth powers of deviations, summed over any release, stay
# far below the float maximum (about 1.8e308), so no statistic overflows.
MAX_MAGNITUDE = 1e50
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


class QuarterSeries:
    """One value per quarter over a contiguous span, NaN where a quarter is absent.

    ``values[i]`` belongs to the quarter whose index is ``start + i``.
    """

    def __init__(self, start: int, values: np.ndarray):
        self.start, self.values = start, values

    @classmethod
    def from_points(cls, quarters: Sequence[int], values: Sequence[float]) -> QuarterSeries:
        """The series with ``values[i]`` at quarter index ``quarters[i]`` and no other quarter."""
        quarters = np.asarray(quarters, dtype=np.int64)
        start = int(quarters.min()) if quarters.size else 0
        data = np.full(int(quarters.max()) + 1 - start if quarters.size else 0, np.nan)
        data[quarters - start] = values
        return cls(start=start, values=data)

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


def factorize(ids: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in sorted order, and each element's code into them.

    Ids are compared as Python strings: a numpy ``str`` array would drop
    trailing NULs and make ``'E1\\x00'`` the id ``'E1'``.
    """
    ids = list(ids)
    table = sorted(set(ids))
    code = {name: i for i, name in enumerate(table)}
    return tuple(table), np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))


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


def group_cells(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct keys in ascending order, the values ordered by key, and the cell bounds.

    Key ``keys[i]`` has the values ``values[bounds[i]:bounds[i + 1]]``, in row order, since the sort is stable.
    """
    order = np.argsort(key, kind="stable")
    grouped = key[order]
    first = np.ones(grouped.size, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    start = np.flatnonzero(first)
    return grouped[start], value[order], np.append(start, grouped.size)


def cell_medians(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the median value of each.

    An even count takes the midpoint of the two middle values, as
    ``statistics.median`` does.  ``group_cells`` groups the rows by key, and
    each cell of two or more rows is then sorted in place, stably, so the
    work and memory stay O(rows) however skewed the cells are.  Equal values
    keep their row order, so in a canonical panel which of 0.0 and -0.0 is
    the median does not depend on row order; NaN sorts last.
    """
    keys, ranked, bounds = group_cells(key, value)
    start, count = bounds[:-1], np.diff(bounds)
    several = count > 1
    for lo, n in zip(start[several].tolist(), count[several].tolist()):
        ranked[lo:lo + n].sort(kind="stable")
    low, high = ranked[start + (count - 1) // 2], ranked[start + count // 2]
    return keys, np.where(count % 2 == 1, low, (low + high) / 2)


def block_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over each block ``values[bounds[i]:bounds[i + 1]]``.

    That is the sum ``np.mean`` takes, so a block sum over its size has the
    bits of the block's ``np.mean``; ``np.add.reduceat`` sums in another
    order.
    """
    edges = bounds.tolist()
    return np.array([np.add.reduce(values[lo:hi]) for lo, hi in zip(edges, edges[1:])], dtype=float)


def economist_runs(economist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The economist code of each run of equal codes, and the run bounds: run i is ``bounds[i]:bounds[i + 1]``.

    Raises ValueError if a code comes back after another, since then its rows would fall into two runs.
    """
    starts = np.flatnonzero(np.diff(economist, prepend=-1))  # codes are non-negative
    if starts.size and np.bincount(economist[starts]).max() > 1:
        raise ValueError("rows must be grouped by economist")
    return economist[starts], np.append(starts, economist.size)


_COLUMNS = ("economist", "quarter", "release", "value", "report_date")


class ForecastPanel:
    """Unbalanced panel of point backcasts as aligned columns, one row per forecast.

    ``economist`` holds codes into the sorted id table ``economist_ids``, so
    code order is id order.  A selection (``take``) keeps its parent's table,
    so every panel selected from one panel shares its codes; the table may
    hold ids that no row uses.
    ``quarter`` is the quarter index, ``release`` the release number and
    ``report_date`` a date ordinal, -1 when undated.

    The canonical row order is (release, economist, quarter), as ``from_rows`` and ``clean_panel``
    return it: a release is a slice, its economists are runs, each in quarter order.
    """

    def __init__(self, economist_ids: tuple[str, ...], economist: np.ndarray, quarter: np.ndarray,
                 release: np.ndarray, value: np.ndarray, report_date: np.ndarray):
        self.economist_ids, self.economist = economist_ids, economist
        self.quarter, self.release, self.value, self.report_date = quarter, release, value, report_date

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ForecastPanel":
        """Build from ``(economist_id, quarter index, release, value, report_date)`` rows, stably sorted."""
        econ, quarter, release, value, dated = list(zip(*rows)) or [()] * 5
        economist_ids, economist = factorize(econ)
        panel = cls(economist_ids, economist, np.array(quarter, dtype=np.int64),
                    np.array(release, dtype=np.int64), np.array(value, dtype=float),
                    np.array([-1 if d is None else d.toordinal() for d in dated], dtype=np.int64))
        return panel.take(np.lexsort((panel.quarter, panel.economist, panel.release)))

    def __len__(self) -> int:
        return self.value.size

    def take(self, rows: np.ndarray) -> "ForecastPanel":
        """The rows a boolean mask or an array of positions selects, in that order."""
        return ForecastPanel(self.economist_ids, *(getattr(self, c)[rows] for c in _COLUMNS))

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
        rows = ForecastPanel(self.economist_ids, *(getattr(self, c)[lo:hi] for c in _COLUMNS))
        rows.__dict__["_canonical"] = True  # a slice of a canonical panel is canonical
        return rows


class CleaningAction(str, Enum):
    DROPPED_DUPLICATE = "dropped-duplicate"
    DROPPED_UNATTRIBUTED = "dropped-unattributed"


class CleaningLogEntry(NamedTuple):
    action: CleaningAction
    row: int  # position of the dropped row in the raw panel


class CleaningLog:
    def __init__(self):
        self.entries: list[CleaningLogEntry] = []

    def dropped_count(self) -> int:
        return len(self.entries)  # every cleaning action drops a row

    def __len__(self) -> int:
        return len(self.entries)


class _Column(dict):
    """One CSV field: each distinct token's code, in order of first appearance, and its parsed value.

    A token is parsed when first coded; ``errors`` maps the code of a token the parser rejects to its message.
    """

    def __init__(self, parse: Callable[[str], object]):
        super().__init__()
        self.parse, self.values, self.errors, self.chunks = parse, [], {}, [np.zeros(0, dtype=np.int64)]

    def __missing__(self, token: str) -> int:
        code = self[token] = len(self.values)
        try:
            self.values.append(self.parse(token))
        except ValueError as exc:
            self.errors[code] = str(exc)
            self.values.append(None)
        return code

    def codes(self) -> np.ndarray:
        return np.concatenate(self.chunks)

    def gather(self, dtype) -> np.ndarray:
        """Each row's parsed value."""
        return np.array(self.values, dtype=dtype)[self.codes()]


def _line_ends(text: str) -> int:
    """The line ends in ``text``, counting CR LF, CR and LF as one each."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _blocks(path, digest=None) -> Iterator[Iterable[str]]:
    """The lines of a CSV file, a block at a time, split at CR LF, CR and LF as ``newline=""`` splits them.

    The file is read as bytes, ``CHUNK_LINES`` LF-ended lines at a time, each block added to ``digest`` (a
    hashlib object) if given, and a byte that is not UTF-8 raises IngestionError naming its line.
    """
    with open(path, "rb") as fh:
        done = 0  # line ends before this block
        while data := b"".join(itertools.islice(fh, CHUNK_LINES)):  # a block ends at LF, so between characters
            if digest is not None:
                digest.update(data)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as bad:
                line = done + _line_ends(data[:bad.start].decode("utf-8")) + 1
                raise IngestionError(f"{path} line {line}: not UTF-8: {bad.reason} 0x{data[bad.start]:02x}") from None
            done += _line_ends(text)
            yield io.StringIO(text, newline="")


def _take(reader, n: int, path) -> tuple[list[list[str]], str | None]:
    """Up to n more rows, and the error naming the line the csv module could not read, if it met one."""
    rows = []
    try:
        rows.extend(itertools.islice(reader, n))  # the rows before a bad line stay
    except csv.Error as exc:  # the reader's line count includes the failed line
        return rows, f"{path} line {reader.line_num}: {exc}"
    return rows, None


def _code_chunk(rows: list[list[str]], columns: list[_Column], seen: set, unique: int,
                duplicate: Callable[..., str] | None) -> tuple[list[np.ndarray], int | None, str | None]:
    """The rows' codes, one array per column, and the position in ``rows`` and error of the first bad row, or Nones.

    The non-blank rows before the first with a wrong field count are coded a column at a time.  A row is checked for
    its field count, then its fields in column order, then its key (its first ``unique`` values), which joins ``seen``.
    """
    width, fault, at = len(columns), (None, None), range(len(rows))  # at: each coded row's position in rows
    if set(map(len, rows)) != {width}:
        stop = next((i for i, row in enumerate(rows) if len(row) not in (0, width)), len(rows))
        fault = (stop, f"expected {width} fields") if stop < len(rows) else fault
        at = [i for i in range(stop) if rows[i]]
        rows = [rows[i] for i in at]
    chunk = [np.fromiter(map(column.__getitem__, tokens), np.int64, len(rows))
             for column, tokens in zip(columns, zip(*rows))]
    # Codes follow first appearance, and an error ends the read: a column's first error row has its lowest error code.
    first = [int(np.argmax(codes == min(column.errors))) if column.errors else len(rows)
             for column, codes in zip(columns, chunk)]
    bad = min(first, default=len(rows))  # first.index(bad) is the first column in column order with an error there
    for i, key in enumerate(zip(*(map(column.values.__getitem__, codes[:bad].tolist())
                                  for column, codes in zip(columns[:unique], chunk)))):
        if key in seen:
            return chunk, at[i], duplicate(*key)
        seen.add(key)
    if bad < len(rows):
        return chunk, at[bad], columns[k := first.index(bad)].errors[int(chunk[k][bad])]
    return chunk, *fault


def _read_csv(path, header: Sequence[str], parsers: Sequence[Callable[[str], object]],
              unique: int = 0, duplicate: Callable[..., str] | None = None, digest=None) -> list[_Column]:
    """Read a CSV file with this header into one ``_Column`` per field, ``parsers[k]`` parsing field k.

    Rows are read with the csv module, ``CHUNK_LINES`` at a time.  No two rows may share the parsed values of the
    first ``unique`` fields; ``duplicate(*values)`` words that error.  The first bad row in file order (see
    ``_code_chunk``) raises IngestionError naming the file and line; so do a wrong header and a line the csv module
    cannot read, such as one with a field over its size limit.  A byte that is not UTF-8 anywhere in the file is
    reported before any other fault.  The file is read to its end once, and its bytes go to ``digest``.
    """
    columns, seen = [_Column(parse) for parse in parsers], set()
    blocks = _blocks(path, digest)
    reader = csv.reader(itertools.chain.from_iterable(blocks))
    rows, fault = _take(reader, 1, path)
    if fault is None and rows != [list(header)]:
        fault = f"{path}: expected header {','.join(header)}, got {rows[0] if rows else None}"
    while fault is None:
        lines = reader.line_num
        rows, fault = _take(reader, CHUNK_LINES, path)  # a csv error comes after these rows
        if not rows:
            break
        chunk, at, message = _code_chunk(rows, columns, seen, unique, duplicate)
        if message:
            # A row takes a line, and one more for each line end in a quoted field, unless the file ends there.
            line = lines + at + 1 + sum(map(_line_ends, itertools.chain.from_iterable(rows[:at + 1])))
            fault = f"{path} line {min(line, reader.line_num)}: {message}"
            break
        for column, codes in zip(columns, chunk):
            column.chunks.append(codes)
    if fault is not None:
        for _ in blocks:  # a byte that is not UTF-8 anywhere in the file is reported first
            pass
        raise IngestionError(fault)
    return columns


def _parse_value(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric value {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    if abs(value) > MAX_MAGNITUDE:
        raise ValueError(f"value {token!r} exceeds the magnitude limit {MAX_MAGNITUDE:g}")
    return value


def _parse_date(token: str) -> date | None:
    """A ``YYYY-MM-DD`` date, None for a blank token; Python 3.11 would also read ``20050701``, but 3.10 not."""
    text = token.strip()
    try:
        if text and not _ISO_DATE.fullmatch(text):
            raise ValueError
        return date.fromisoformat(text) if text else None
    except ValueError:
        raise ValueError(f"invalid report_date {token!r}") from None


def _release_number(token: str) -> int:
    return ReleaseKind.from_token(token).value


def load_actuals(path, digest=None) -> dict[ReleaseKind, QuarterSeries]:
    """Read the actuals CSV (header quarter,release,value) into one series per release.

    A duplicate (quarter, release) row is an error.  Each loader adds the file's bytes to ``digest`` as it reads.
    """
    quarter, release, value = _read_csv(
        path, ACTUALS_HEADER, (parse_quarter, _release_number, _parse_value), unique=2,
        duplicate=lambda q, r: f"duplicate actuals row for {quarter_label(q)} release {r}", digest=digest)
    quarter, release, value = quarter.gather(np.int64), release.gather(np.int64), value.gather(float)
    return {kind: QuarterSeries.from_points(quarter[release == kind], value[release == kind]) for kind in ReleaseKind}


def load_forecasts(path, digest=None) -> ForecastPanel:
    """Read the forecasts CSV into a raw (uncleaned) panel, rows in file order, ids stripped of blanks.

    Each row must have its ``firm_id`` field, but no analysis reads it, so the panel keeps no firm column.
    """
    quarter, release, economist, _, value, dated = _read_csv(
        path, FORECASTS_HEADER,
        (parse_quarter, _release_number, str.strip, str.strip, _parse_value,
         lambda token: -1 if (day := _parse_date(token)) is None else day.toordinal()), digest=digest)
    economist_ids, economist_code = factorize(economist.values)
    return ForecastPanel(economist_ids, economist_code[economist.codes()], quarter.gather(np.int64),
                         release.gather(np.int64), value.gather(float), dated.gather(np.int64))


def load_spf(path, digest=None) -> dict[str, QuarterSeries]:
    """Read the SPF CSV (header quarter,median,mean) into its nowcast series, keyed "median" and "mean".

    The keys are the baseline methods, so a method's SPF nowcast is ``spf[method]``.  A duplicate quarter is an error.
    """
    quarter, median, mean = _read_csv(
        path, SPF_HEADER, (parse_quarter, _parse_value, _parse_value), unique=1,
        duplicate=lambda q: f"duplicate spf row for {quarter_label(q)}", digest=digest)
    quarter = quarter.gather(np.int64)
    return {"median": QuarterSeries.from_points(quarter, median.gather(float)),
            "mean": QuarterSeries.from_points(quarter, mean.gather(float))}


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

    order = np.lexsort((deviation, -raw.report_date[pos], quarter, econ, release))  # stable: ties keep input order
    rows, econ, quarter, release = pos[order], econ[order], quarter[order], release[order]
    best = np.ones(rows.size, dtype=bool)
    best[1:] = (econ[1:] != econ[:-1]) | (quarter[1:] != quarter[:-1]) | (release[1:] != release[:-1])
    first_seen = np.minimum.reduceat(rows, np.flatnonzero(best))[np.cumsum(best) - 1]
    in_log_order = np.argsort(first_seen, kind="stable")
    for row in rows[in_log_order][~best[in_log_order]].tolist():
        log.entries.append(CleaningLogEntry(CleaningAction.DROPPED_DUPLICATE, row))
    return raw.take(rows[best]), log


def participation_share(panel: ForecastPanel, release: ReleaseKind) -> np.ndarray:
    """Every economist's share of the release's quarters with a forecast for it.

    Indexed by economist code.  The release's quarters run from its first to
    last quarter in the panel; a release without forecasts gives all zeros.
    The panel must be clean: one row per (economist, quarter, release).
    """
    rows = panel.release == release
    if not rows.any():
        return np.zeros(len(panel.economist_ids))
    first, last = panel.quarter[rows].min(), panel.quarter[rows].max()
    return np.bincount(panel.economist[rows], minlength=len(panel.economist_ids)) / (last - first + 1)


class JointCoverage(NamedTuple):
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
