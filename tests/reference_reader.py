"""The row parser: a reference reader for the three input files, one ``csv.DictReader`` row at a time.

Each row is checked for its field count, then parsed field by field, then
checked for a duplicate key, and the first fault raises IngestionError
naming the file and line.  ``load_actuals``, ``load_forecasts`` and
``load_spf`` must give the same result, or the same error, on every UTF-8
input; ``outcome`` puts either in a form that compares bit for bit.
"""
import csv
import functools
from pathlib import Path

import numpy as np

from judgebench.errors import IngestionError
from judgebench.panel import (
    ACTUALS_HEADER,
    FORECASTS_HEADER,
    SPF_HEADER,
    ForecastPanel,
    QuarterSeries,
    SpfNowcasts,
    _parse_date,
    _parse_value,
    factorize,
)
from judgebench.quarters import ReleaseKind, parse_quarter, quarter_label


def parse_rows(source, header, what, parse_row):
    """Yield ``(where, parse_row(row))`` for each data row of a CSV source; ``where`` names the file and line."""
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
    except csv.Error as exc:  # the underlying reader's line count includes the failed line
        raise IngestionError(f"{name} line {reader.reader.line_num}: {exc}") from exc
    finally:
        if is_path:
            fh.close()


def load_actuals(source) -> dict[ReleaseKind, QuarterSeries]:
    def parse_row(row):
        return parse_quarter(row["quarter"]), ReleaseKind.from_token(row["release"]), _parse_value(row["value"])

    points = {release: {} for release in ReleaseKind}
    for where, (quarter, release, value) in parse_rows(source, ACTUALS_HEADER, "actuals", parse_row):
        if quarter in points[release]:
            raise IngestionError(f"{where}: duplicate actuals row for {quarter_label(quarter)} release {release.value}")
        points[release][quarter] = value
    return {release: QuarterSeries.from_points(list(series), list(series.values()))
            for release, series in points.items()}


def load_forecasts(source) -> ForecastPanel:
    """The raw panel, rows in file order."""
    quarter_of = functools.cache(parse_quarter)

    def parse_row(row):
        return (row["economist_id"].strip(), quarter_of(row["quarter"]),
                ReleaseKind.from_token(row["release"]), _parse_value(row["value"]), _parse_date(row["report_date"]))

    rows = [row for _, row in parse_rows(source, FORECASTS_HEADER, "forecasts", parse_row)]
    econ, quarter, release, value, dated = zip(*rows) if rows else ((),) * 5
    economist_ids, economist = factorize(econ)
    return ForecastPanel(
        economist_ids, economist,
        np.array(quarter, dtype=np.int64),
        np.array(release, dtype=np.int64),
        np.array(value, dtype=float),
        np.array([-1 if d is None else d.toordinal() for d in dated], dtype=np.int64),
    )


def load_spf(source) -> SpfNowcasts:
    def parse_row(row):
        return parse_quarter(row["quarter"]), _parse_value(row["median"]), _parse_value(row["mean"])

    points = {}
    for where, (quarter, med, avg) in parse_rows(source, SPF_HEADER, "spf", parse_row):
        if quarter in points:
            raise IngestionError(f"{where}: duplicate spf row for {quarter_label(quarter)}")
        points[quarter] = med, avg
    quarters, (median, mean) = list(points), zip(*points.values()) if points else ((), ())
    return SpfNowcasts(QuarterSeries.from_points(quarters, median), QuarterSeries.from_points(quarters, mean))


LOADERS = {"actuals": load_actuals, "forecasts": load_forecasts, "spf": load_spf}


def _bits(value) -> tuple:
    """A loaded panel, series or mapping of series as nested tuples of bytes, -0.0 told apart from 0.0."""
    if isinstance(value, ForecastPanel):
        columns = (value.economist, value.quarter, value.release, value.value, value.report_date)
        return value.economist_ids, *((c.dtype.str, c.tobytes()) for c in columns)
    if isinstance(value, QuarterSeries):
        return value.start, value.values.dtype.str, value.values.tobytes()
    if isinstance(value, SpfNowcasts):
        return _bits(value.median), _bits(value.mean)
    return tuple((key, _bits(item)) for key, item in value.items())


def outcome(load, source) -> tuple:
    """``("loaded", bits)`` or ``("error", message)`` for one call of a loader."""
    try:
        return "loaded", _bits(load(source))
    except IngestionError as exc:
        return "error", str(exc)

