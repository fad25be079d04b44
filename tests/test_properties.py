"""Invariants of the panel core, checked on generated panels (hypothesis)."""
import csv
import json
import math
import shutil
import statistics
import tempfile
import warnings
from datetime import date
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from judgebench import panel as panel_module
from judgebench.accuracy import accuracy_table
from judgebench.armodel import DEFAULT_MAX_GAP, fill_missing
from judgebench.cli import CodedColumn, _fmt, main, write_csv
from judgebench.descriptive import quarter_stats
from judgebench.errors import EstimationError, IngestionError
from judgebench.judgment import (
    HISTOGRAM_BINS,
    JudgmentPanel,
    baseline,
    baseline_hit_stats,
    extract_judgments,
    negative_share_histogram,
    passes_threshold,
    sign_shares,
)
from judgebench.panel import ForecastPanel, clean_panel, load_forecasts
from judgebench.quarters import ReleaseKind, quarter_label
from judgebench.tails import t_sf

import reference_reader as reference
from conftest import Obs, as_records, dataset, fe_fit, present, q, rec, rows_of, series_from
from reference_reader import outcome

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
START = q(2000, 1)

values = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
keys = st.tuples(st.integers(0, 5), st.integers(0, 7), st.sampled_from(list(ReleaseKind)))


@SETTINGS
@given(cells=st.dictionaries(keys, values, min_size=1, max_size=60),
       shift=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_judgments_invariant_to_a_common_shift(cells, shift):
    rows = [rec(f"E{e}", START + t, v, release) for (e, t, release), v in cells.items()]
    panel = ForecastPanel.from_rows(rows)
    moved = ForecastPanel.from_rows(row._replace(value=row.value + shift) for row in rows)
    for release in {release for _, _, release in cells}:
        for method in ("median", "mean"):
            jp = extract_judgments(panel, release, baseline(panel, release, method), grid=0.0)
            jp_moved = extract_judgments(moved, release, baseline(moved, release, method), grid=0.0)
            assert np.abs(jp_moved.value - jp.value).max() <= 1e-12


@st.composite
def persistence_panels(draw):
    """Per-economist observation counts, a seed for the values and a relabelling."""
    counts = draw(st.lists(st.integers(2, 6), min_size=3, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    relabel = draw(st.permutations(range(len(counts))))
    return counts, seed, relabel


@SETTINGS
@given(persistence_panels())
def test_fe_beta_invariant_to_relabelling_economists(drawn):
    counts, seed, relabel = drawn
    rng = np.random.default_rng(seed)
    data = []
    for i, n in enumerate(counts):
        effect = rng.normal()
        for t in range(n):
            x = rng.normal()
            data.append(Obs(f"E{i}", START + t, 0.3 * x + effect + rng.normal(0, 0.5), x))
    renamed = [o._replace(economist_id=f"R{relabel[int(o.economist_id[1:])]}") for o in data]
    for spec in ("fe", "fe_te"):
        try:
            result = fe_fit(dataset(data), spec)
        except EstimationError:
            with pytest.raises(EstimationError):
                fe_fit(dataset(renamed), spec)
            continue
        assert fe_fit(dataset(renamed), spec).beta == pytest.approx(result.beta, abs=1e-10)


@SETTINGS
@given(rows=st.lists(st.tuples(st.sampled_from(["", "E0", "E1", "E2"]), st.integers(0, 3),
                               st.sampled_from(list(ReleaseKind)), values), min_size=1, max_size=40),
       data=st.data())
def test_cleaning_and_baselines_invariant_to_row_order_with_distinct_dates(rows, data):
    dated = [
        rec(econ, START + t, value, release, report_date=date.fromordinal(730000 + i))
        for i, (econ, t, release, value) in enumerate(rows)
    ]
    shuffled = data.draw(st.permutations(dated))
    cleaned, log = clean_panel(ForecastPanel.from_rows(dated))
    cleaned_shuffled, log_shuffled = clean_panel(ForecastPanel.from_rows(shuffled))
    assert sorted(rows_of(cleaned)) == sorted(rows_of(cleaned_shuffled))
    assert len(log) == len(log_shuffled)
    for release in ReleaseKind:
        for method in ("median", "mean"):
            expected = present(baseline(cleaned, release, method))
            assert present(baseline(cleaned_shuffled, release, method)) == expected


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _report_files(work: Path, forecast_lines: list[str]) -> dict[str, bytes]:
    """Every file of ``report`` on the golden actuals and SPF and these forecast lines.

    Each call writes the same input paths, so the manifests differ at most in
    the input digests.
    """
    inputs, out = work / "inputs", work / f"out{len(list(work.iterdir()))}"
    (inputs / "forecasts.csv").write_text("".join(forecast_lines), encoding="utf-8")
    args = [f"--{kind}={inputs / kind}.csv" for kind in ("actuals", "forecasts", "spf")]
    assert main(["report", *args, "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files["manifest.json"])
    del manifest["inputs"]["forecasts"]
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_report_invariant_to_forecast_row_order_with_distinct_dates(seed):
    header, *rows = (GOLDEN_INPUTS / "forecasts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    first_day = date(2020, 1, 1).toordinal()
    dated = [f"{row[: row.rindex(',')]},{date.fromordinal(first_day + i)}\n" for i, row in enumerate(rows)]
    shuffled = [dated[i] for i in np.random.default_rng(seed).permutation(len(dated))]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        for name in ("actuals.csv", "spf.csv"):
            shutil.copyfile(GOLDEN_INPUTS / name, work / "inputs" / name)
        expected = _report_files(work, [header, *dated])
        got = _report_files(work, [header, *shuffled])
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], name


def fill_by_loop(points: dict) -> dict:
    """Gap filling quarter by quarter, linear across each gap inside the span (the reference)."""
    known = sorted(points)
    out = dict(points)
    for q in range(known[0], known[-1] + 1):
        if q in points:
            continue
        left, right = max(p for p in known if p < q), min(p for p in known if p > q)
        if right - left - 1 > DEFAULT_MAX_GAP:
            raise IngestionError("gap too long")
        steps = right - left
        out[q] = points[left] + (points[right] - points[left]) * (q - left) / steps
    return out


@SETTINGS
@given(drawn=st.dictionaries(st.integers(3, 20), values, min_size=1))
def test_fill_missing_equals_the_quarter_loop(drawn):
    points = {START + t: v for t, v in drawn.items()}
    try:
        expected = fill_by_loop(points)
    except IngestionError:
        with pytest.raises(IngestionError, match="interior gap"):
            fill_missing(series_from(points))
        return
    assert present(fill_missing(series_from(points))) == expected


grid_values = st.integers(-30, 30).map(lambda k: k / 20)  # on and between 0.1 grid points


@SETTINGS
@given(base=st.dictionaries(st.integers(0, 9), grid_values, min_size=1),
       actual=st.dictionaries(st.integers(0, 9), grid_values, min_size=1),
       grid=st.sampled_from([0.0, 0.1, 0.25]))
def test_baseline_hit_stats_equal_the_isclose_loop(base, actual, grid):
    common = sorted(set(base) & set(actual))
    series = series_from({START + t: v for t, v in base.items()})
    actuals = series_from({START + t: v for t, v in actual.items()})
    if not common:
        assert all(math.isnan(share) for share in baseline_hit_stats(series, actuals, grid))
        return
    counts = [0, 0, 0]
    for t in common:
        b = float(np.round(base[t] / grid) * grid) if grid else base[t]
        y = float(np.round(actual[t] / grid) * grid) if grid else actual[t]
        counts[0 if math.isclose(b, y, abs_tol=(grid or 1e-12) / 4) else 1 if b > y else 2] += 1
    hits = baseline_hit_stats(series, actuals, grid)
    assert (hits.correct, hits.overprediction, hits.underprediction) == tuple(c / len(common) for c in counts)


ECONOMISTS = ("E0", "E1", "E2", "E3", "E4", "E5")


def sign_panel(cells: dict, neutral_only: set, participation: list, thresholds: list) -> tuple:
    """The first release's judgments of ``cells``, with the economists' participation shares and the thresholds.

    ``cells`` maps (economist, quarter offset, release) to (value, neutral);
    an economist of ``neutral_only`` has only neutral judgments.  The
    forecasts stand in for the judgments: only their signs matter here.
    """
    panel = ForecastPanel.from_rows(rec(econ, START + t, value, release)
                                    for (econ, t, release), (value, _) in cells.items())
    rows = panel.for_release(ReleaseKind.FIRST)
    ids = [rows.economist_ids[code] for code in rows.economist.tolist()]
    neutral = [cells[econ, quarter - START, ReleaseKind.FIRST][1] or econ in neutral_only
               for econ, quarter in zip(ids, rows.quarter.tolist())]
    jp = JudgmentPanel(ReleaseKind.FIRST, rows, rows.value, np.array(neutral, dtype=bool))
    return jp, np.array(participation[:len(panel.economist_ids)]), thresholds


@st.composite
def sign_panels(draw):
    """Some economists have only neutral judgments, and some have rows of the other release only.

    No share is above 0.9, so the cuts 0.95 and 1.0 find no economist.
    """
    cells = draw(st.dictionaries(st.tuples(st.sampled_from(ECONOMISTS), st.integers(0, 7),
                                           st.sampled_from([ReleaseKind.FIRST, ReleaseKind.SECOND])),
                                 st.tuples(values, st.booleans()), min_size=1, max_size=40))
    share = st.sampled_from([0.0, 0.1, 0.100001, 0.25, 0.3, 0.5, 0.75, 0.9])
    return sign_panel(cells, draw(st.sets(st.sampled_from(ECONOMISTS))),
                      draw(st.lists(share, min_size=len(ECONOMISTS), max_size=len(ECONOMISTS))),
                      draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.95, 1.0]), min_size=1, max_size=4)))


# Economist Ek has k negative judgments of five: negative shares on each inner bin edge.
EDGE_CELLS = {(f"E{k}", t, ReleaseKind.FIRST): (-1.0 if t < k else 1.0, False) for k in range(1, 5) for t in range(5)}


def histogram_label(share: float) -> str:
    return ("<=20%" if share <= 0.2 else "20-40%" if share <= 0.4 else "40-60%" if share <= 0.6
            else "60-80%" if share <= 0.8 else ">80%")


@SETTINGS
@given(sign_panels())
@example(sign_panel(EDGE_CELLS, set(), [0.9] * 4, [0.5, 1.0]))
@example(sign_panel({("E0", 0, ReleaseKind.SECOND): (1.0, False)}, set(), [0.0], [0.1, 0.1]))  # no first release
def test_sign_shares_and_histogram_equal_the_economist_loop(drawn):
    jp, participation, thresholds = drawn
    signs: dict[int, list[str]] = {}
    for code, value, neutral in zip(jp.panel.economist.tolist(), jp.value.tolist(), jp.neutral.tolist()):
        signs.setdefault(code, []).append("neutral" if neutral else "negative" if value < 0 else "positive")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shares = sign_shares(jp, participation, thresholds)
    hist = negative_share_histogram(jp, participation, thresholds)
    assert hist.shape == (len(thresholds), len(HISTOGRAM_BINS))
    for i, threshold in enumerate(thresholds):
        chosen = [s for code, s in sorted(signs.items()) if passes_threshold(float(participation[code]), threshold)]
        assert shares.n_economists[i] == len(chosen)
        for kind in ("negative", "positive", "neutral"):
            mean, sd = getattr(shares, f"mean_{kind}")[i], getattr(shares, f"sd_{kind}")[i]
            if not chosen:
                assert math.isnan(mean) and math.isnan(sd)
                continue
            per_economist = [s.count(kind) / len(s) for s in chosen]
            assert abs(mean - statistics.fmean(per_economist)) <= 1e-12
            assert abs(sd - statistics.pstdev(per_economist)) <= 1e-12
        counts = dict.fromkeys(HISTOGRAM_BINS, 0)
        for s in chosen:
            non_neutral = [x for x in s if x != "neutral"]
            if non_neutral:  # an economist with only neutral judgments is in no bin
                counts[histogram_label(non_neutral.count("negative") / len(non_neutral))] += 1
        assert hist[i].tolist() == [counts[label] for label in HISTOGRAM_BINS]
    # A release without forecasts warns once that it has none, not once per threshold.
    assert [str(w.message) for w in caught] == (
        [f"no economist passes threshold {thr} for release 1" for i, thr in enumerate(thresholds)
         if not shares.n_economists[i]] if len(jp) else ["release 1 has no forecasts"])


value_tokens = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                         st.sampled_from(["+1.5", "-2e-3", "1E2", " 0.25", "-0", "7", "1_000"]))
forecast_lines = st.builds(
    lambda *fields: ",".join(fields),
    st.sampled_from(["2000Q1", "2000Q4", "1999Q3", " 2001Q2", "2002Q1 "]),
    st.sampled_from(["1", "2", "3", " 2", "+3", "03"]),
    st.sampled_from(["E1", " E1", "E2 ", "E10", "e1", ""]),  # padded ids, and firm-only rows
    st.sampled_from(["F1", " F2", ""]),
    value_tokens,
    st.sampled_from(["", "2000-04-10", " 2001-01-31", "2000-04-10 "]),  # undated and dated
)
# Quarters from 41, so a key now and then repeats; padded, so one quarter has several tokens.
quarter_tokens = st.builds(lambda i, pad: pad + quarter_label(START + i), st.integers(0, 40),
                           st.sampled_from(["", " "]))
LINES = {
    "actuals": st.builds(lambda *fields: ",".join(fields), quarter_tokens, st.sampled_from(["1", " 2", "+3"]),
                         value_tokens),
    "forecasts": forecast_lines,
    "spf": st.builds(lambda *fields: ",".join(fields), quarter_tokens, value_tokens, value_tokens),
}
HEADERS = {"actuals": "quarter,release,value", "forecasts": "quarter,release,economist_id,firm_id,value,report_date",
           "spf": "quarter,median,mean"}
LOADERS = {"actuals": panel_module.load_actuals, "forecasts": load_forecasts, "spf": panel_module.load_spf}
GOOD_ROWS = {"actuals": "2000Q1,1,1.5", "forecasts": "2000Q1,1,E1,F1,1.5,", "spf": "2000Q1,1.5,1.5"}
VALUE_AT = {"actuals": 2, "forecasts": 4, "spf": 1}


def _csv_file(what: str, lines: list[str], header: str | None = None, crlf_from: int | None = None) -> str:
    """The lines under the header of ``what``, with CRLF line ends from line ``crlf_from`` on."""
    ends = ["\n" if crlf_from is None or i < crlf_from else "\r\n" for i in range(len(lines))]
    return (header or HEADERS[what]) + "\n" + "".join(line + end for line, end in zip(lines, ends))


def _written(text: str, tmp: str, name: str = "forecasts.csv") -> Path:
    """The text written as UTF-8 to the file ``name`` in the directory ``tmp``."""
    path = Path(tmp) / name
    path.write_bytes(text.encode())
    return path


def _outcomes(what: str, text: str, chunk: int | None = None) -> tuple[tuple, tuple]:
    """The reader's and the row parser's outcome on this text as a file."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(panel_module, "CHUNK_LINES",
                                                                 chunk or panel_module.CHUNK_LINES):
        path = _written(text, tmp, f"{what}.csv")
        return outcome(LOADERS[what], path), outcome(reference.LOADERS[what], path)


@SETTINGS
@pytest.mark.parametrize("what", sorted(LINES))
@given(data=st.data(), chunk=st.integers(1, 4), final_newline=st.booleans())
def test_reader_equals_row_parser_on_generated_files(what, data, chunk, final_newline):
    text = _csv_file(what, data.draw(st.lists(LINES[what], max_size=12)))
    got, expected = _outcomes(what, text if final_newline else text[:-1], chunk)
    assert got == expected


def _insert(line):
    """The file with ``line(what)`` inserted before line ``at``."""
    return lambda what, lines, at: _csv_file(what, [*lines[:at], line(what), *lines[at:]])


def _edit(k: int | str, token: str):
    """The file with the good row inserted, its field k (or ``"value"``, spf's median) replaced by ``token``."""
    def line(what: str) -> str:
        fields = GOOD_ROWS[what].split(",")
        fields[VALUE_AT[what] if k == "value" else k] = token
        return ",".join(fields)
    return _insert(line)


def _with_bad_value(line: str, what: str) -> str:
    """The line with its value field (spf's median) replaced by a non-numeric token."""
    fields = line.split(",")
    fields[VALUE_AT[what]] = "abc"
    return ",".join(fields)


OVERLONG = "9" * (csv.field_size_limit() + 1)  # "field larger than field limit (131072)"

# Files with one irregularity before line ``at``: errors of every kind, and valid files only the csv module reads.
IRREGULAR_FILES = {
    "non-numeric value": _edit("value", "abc"),
    "non-finite value": _edit("value", "inf"),
    "nan value": _edit("value", "nan"),
    "bad last field": _edit(-1, "2020-13-45"),  # a bad report_date in forecasts
    "too few fields": _insert(lambda what: GOOD_ROWS[what].rsplit(",", 1)[0]),
    "too many fields": _insert(lambda what: GOOD_ROWS[what] + ",extra"),
    "bad quarter": _edit(0, "2000Q5"),
    "second field 4": _edit(1, "4"),  # not a release; a valid spf median
    "whitespace line": _insert(lambda what: " "),
    "bad header": lambda what, lines, at: _csv_file(what, lines, header=HEADERS[what] + "x"),
    "quoted field": _edit("value", '"1.5"'),
    "quoted comma": _edit("value", '"1,5"'),
    "quoted line end": _edit("value", '"1\n5"'),
    "unclosed quote": _edit("value", '"1.5'),  # the field runs to the end of the file
    "blank lines": _insert(lambda what: "\n"),
    "crlf line ends": lambda what, lines, at: _csv_file(what, lines, crlf_from=at),
    "duplicate key": lambda what, lines, at: _csv_file(what, [*lines[:at], lines[max(at - 1, 0)], *lines[at:]]),
    "bad token before a csv error": lambda what, lines, at: _csv_file(
        what, [*lines[:at], GOOD_ROWS[what].replace("1.5", "abc", 1), *lines[at:], OVERLONG]),
    "overlong field": _edit("value", OVERLONG),
    # Two faults in one chunk: the first in file order is the one named.
    "duplicate key before a non-numeric value": lambda what, lines, at: _csv_file(
        what, [*lines[:at], lines[max(at - 1, 0)], _with_bad_value(GOOD_ROWS[what], what), *lines[at:]]),
    "non-numeric value before a duplicate key": lambda what, lines, at: _csv_file(
        what, [*lines[:at], _with_bad_value(GOOD_ROWS[what], what), lines[max(at - 1, 0)], *lines[at:]]),
    "non-numeric value on a duplicated row": lambda what, lines, at: _csv_file(
        what, [*lines[:at], _with_bad_value(lines[max(at - 1, 0)], what), *lines[at:]]),
    "short row after a non-numeric value": lambda what, lines, at: _csv_file(
        what, [*lines[:at], _with_bad_value(GOOD_ROWS[what], what), GOOD_ROWS[what].rsplit(",", 1)[0], *lines[at:]]),
}


@pytest.mark.parametrize("kind", sorted(IRREGULAR_FILES))
@pytest.mark.parametrize("what", sorted(LINES))
@pytest.mark.parametrize("at", [0, 3, -1], ids=["first-chunk", "chunk-boundary", "later-chunk"])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_irregular_files_read_as_the_row_parser_reads_them(kind, what, at, data):
    lines = data.draw(st.lists(LINES[what], min_size=4, max_size=8))
    # Chunks of 3 rows: line 3 starts the second chunk, and the last line is in a later one.
    got, expected = _outcomes(what, IRREGULAR_FILES[kind](what, lines, at % len(lines)), chunk=3)
    assert got == expected


@st.composite
def two_way_panels(draw):
    """Unbalanced panels with one observation per (economist, quarter) cell.

    With ``split`` the economists fall into two blocks that share no quarter,
    so the economist-quarter graph is disconnected; one quarter leaves every
    economist a singleton.
    """
    n_quarters = draw(st.integers(1, 8))
    split = n_quarters >= 4 and draw(st.booleans())
    blocks = [range(n_quarters // 2), range(n_quarters // 2, n_quarters)] if split else [range(n_quarters)]
    cells = []
    for i in range(draw(st.integers(2, 8))):
        block = blocks[i % len(blocks)]
        cells += [(i, t) for t in sorted(draw(st.sets(st.sampled_from(block), min_size=1)))]
    return cells, draw(st.integers(0, 2**32 - 1))


def two_way_dummy_ols(data):
    """FE+TE by brute force: OLS of y on x, every economist dummy and every quarter dummy but the first.

    Singletons are dropped first, and the clustered SE counts K = T regressors,
    as ``fe_estimate`` does.  Returns (beta, se, unclustered se, within R^2,
    n_obs, n_forecasters, singletons_dropped).
    """
    codes, inverse, counts = np.unique(data.economist, return_inverse=True, return_counts=True)
    keep = counts[inverse] >= 2
    if not keep.any():
        raise EstimationError("all singletons")
    econ = np.unique(inverse[keep], return_inverse=True)[1]
    quarters = np.unique(data.quarter[keep])
    y, x = data.response[keep], data.regressor[keep]
    econ_dummies = (econ[:, None] == np.arange(econ.max() + 1)[None, :]).astype(float)
    quarter_dummies = (data.quarter[keep][:, None] == quarters[None, 1:]).astype(float)
    X = np.column_stack([x, econ_dummies, quarter_dummies])
    n, g, t = y.size, econ_dummies.shape[1], quarters.size
    if g < 2 or n - t < 1 or np.linalg.matrix_rank(X) < X.shape[1]:
        raise EstimationError("no two-way estimate")
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    u = y - X @ coef
    bread = np.linalg.inv(X.T @ X)
    scores = np.zeros((g, X.shape[1]))
    np.add.at(scores, econ, X * u[:, None])
    factor = g / (g - 1) * (n - 1) / (n - t)
    cov = factor * bread @ scores.T @ scores @ bread
    se = 0.0 if np.allclose(u, 0.0) else float(np.sqrt(max(cov[0, 0], 0.0)))
    se_unclustered = float(np.sqrt(factor * (u @ u) * bread[0, 0]))
    y_within = y - (econ_dummies @ np.linalg.lstsq(econ_dummies, y, rcond=None)[0])
    r2 = 1.0 - (u @ u) / (y_within @ y_within)
    return coef[0], se, se_unclustered, r2, n, g, int(np.sum(counts < 2))


# Two blocks of quarters, 0-3 and 4-7, that only economist 7's two observations join.
BRIDGED_BLOCKS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 0), (2, 3),
                  (3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 4), (5, 7), (6, 6), (6, 7), (7, 3), (7, 4)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(two_way_panels())
@example((BRIDGED_BLOCKS, 1))  # connected: it fits and matches the dummy OLS
@example(([cell for cell in BRIDGED_BLOCKS if cell[0] != 7], 1))  # disconnected: rank deficient
def test_fe_te_equals_two_way_dummy_ols(drawn):
    cells, seed = drawn
    rng = np.random.default_rng(seed)
    effects, shocks = rng.normal(size=8), rng.normal(size=8)
    data = []
    for i, t in cells:
        x = rng.normal()
        data.append(Obs(f"E{i}", START + t, 0.3 * x + effects[i] + shocks[t] + rng.normal(0, 0.5), x))
    try:
        expected = two_way_dummy_ols(dataset(data))
    except EstimationError:
        with pytest.raises(EstimationError):
            fe_fit(dataset(data), "fe_te")
        return
    result = fe_fit(dataset(data), "fe_te")
    beta, se, se_unclustered, r2, n_obs, n_forecasters, singletons = expected
    assert result.beta == pytest.approx(beta, rel=1e-9, abs=1e-12)
    # Compared as variances.  Where the cluster scores cancel exactly (two
    # economists seen in the same quarters) the true SE is 0 and both sides
    # return rounding noise, which is small against the unclustered variance.
    assert result.se_clustered**2 == pytest.approx(se**2, rel=2e-9, abs=2e-9 * se_unclustered**2)
    assert result.r_squared == pytest.approx(r2, rel=1e-9, abs=1e-12)
    assert (result.n_obs, result.n_forecasters, result.singletons_dropped) == (n_obs, n_forecasters, singletons)


def _row_writer(path: Path, header: list[str], rows: list[list], comment: str | None = None) -> None:
    """The row-list writer the columnar ``write_csv`` replaced: ``_fmt`` on each cell of each row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


edge_floats = st.one_of(
    st.floats(allow_infinity=False),  # NaN included
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 0.1, 1 / 3, 123456789012345.0]),
)
text_cells = st.one_of(
    st.sampled_from(["", " ", "a,b", 'say "x"', "two\nlines", "cr\rlf", " padded ", "ünï", "-0", "1e5"]),
    st.text(max_size=6),
)


@st.composite
def tables(draw):
    """Columns of one length in every form ``write_csv`` takes, and the same table as Python rows."""
    n = draw(st.integers(0, 12))
    columns, values = [], []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "bool", "cells", "coded"]), min_size=1, max_size=6)):
        if kind == "float":
            column = np.array(draw(st.lists(edge_floats, min_size=n, max_size=n)), dtype=float)
            cells = column.tolist()
        elif kind == "int":
            column = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)), dtype=np.int64)
            cells = column.tolist()
        elif kind == "bool":
            column = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
            cells = column.tolist()
        elif kind == "cells":
            column = cells = draw(st.lists(st.one_of(st.none(), edge_floats, st.integers(), st.booleans(),
                                                     text_cells, st.just(np.float64(-0.0)), st.just(np.int64(7))),
                                           min_size=n, max_size=n))
        else:
            table = draw(st.lists(st.one_of(text_cells, edge_floats, st.none()), min_size=1, max_size=4))
            codes = np.array(draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n)), dtype=np.int64)
            column, cells = CodedColumn(table, codes), [table[c] for c in codes.tolist()]
        columns.append(column)
        values.append(cells)
    return columns, [list(row) for row in zip(*values)]


@SETTINGS
@given(table=tables(), comment=st.sampled_from([None, "", "a note, with a comma"]))
@example(table=([np.array([0.0, -0.0, math.nan, -5e-324]), np.array([False, True, True, False]),
                 CodedColumn(["-0", -0.0, None], np.array([1, 0, 2, 1]))],
                [[0.0, False, -0.0], [-0.0, True, "-0"], [math.nan, True, None], [-5e-324, False, -0.0]]),
         comment=None)
def test_columnar_writer_equals_the_row_writer(table, comment):
    columns, rows = table
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp) / "got.csv", Path(tmp) / "expected.csv"
        write_csv(got, header, columns, comment=comment)
        _row_writer(expected, header, rows, comment=comment)
        assert got.read_bytes() == expected.read_bytes()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(forecast_lines, min_size=1, max_size=12), extra=st.integers(0, 5))
def test_columnar_ingest_equals_row_parser_across_chunks(lines, extra):
    # Longer than one chunk, so the id dicts and the value dicts carry codes across chunks.
    repeated = (lines * (panel_module.CHUNK_LINES // len(lines) + 2))[: panel_module.CHUNK_LINES + extra + 1]
    got, expected = _outcomes("forecasts", _csv_file("forecasts", repeated))
    assert got == expected


def test_padded_ids_strip_to_one_id_across_chunks():
    lines = [f"2000Q{1 + i % 4},1,{pad}E1{pad},{pad}F1,{i % 7}," for i, pad in enumerate(["", " ", "  "] * 1400)]
    text = _csv_file("forecasts", lines)
    with tempfile.TemporaryDirectory() as tmp:
        panel = load_forecasts(_written(text, tmp))
    assert panel.economist_ids == ("E1",)
    assert _outcomes("forecasts", text)[0] == _outcomes("forecasts", text)[1]


def test_an_id_keeps_its_trailing_nul():
    with tempfile.TemporaryDirectory() as tmp:
        panel = load_forecasts(_written(_csv_file("forecasts", ["2000Q1,1,E1\0,F1,1.5,", "2000Q1,1,E1,F1,2.5,"]), tmp))
    assert panel.economist_ids == ("E1", "E1\0")
    assert ForecastPanel.from_rows([("E1\0", START, 1, 1.5, None)]).economist_ids == ("E1\0",)


@pytest.mark.parametrize("kind", sorted(set(IRREGULAR_FILES) - {"bad header", "crlf line ends"}))
@pytest.mark.parametrize("what", sorted(LINES))
@pytest.mark.parametrize("after", [0, 20], ids=["second-chunk-start", "in-second-chunk"])
def test_malformed_line_after_the_first_chunk_names_its_line(kind, what, after):
    lines = [{"actuals": f"{quarter_label(START + i)},1,{i / 8}",
              "forecasts": f"2000Q{1 + i % 4},{1 + i % 3},E{i % 9},F1,{i / 8},",
              "spf": f"{quarter_label(START + i)},{i / 8},{i}"}[what] for i in range(panel_module.CHUNK_LINES + 40)]
    at = panel_module.CHUNK_LINES + after  # the data row index of the inserted line
    got, expected = _outcomes(what, IRREGULAR_FILES[kind](what, lines, at))
    assert got == expected
    if got[0] == "error":  # a row is named by its last line: the header's and the ``at`` lines before it, plus one
        last = {"quoted line end": at + 3, "unclosed quote": len(lines) + 2,
                "duplicate key before a non-numeric value": at + 2 + (what == "forecasts")}  # forecasts have no key
        assert f"line {last.get(kind, at + 2)}:" in got[1]


class QuarterStats(NamedTuple):
    """One quarter's statistics, None where a moment is absent."""

    quarter: int
    n: int
    rmse: float
    std_dev: float
    skewness: float | None
    excess_kurtosis: float | None


def quarter_stats_by_loop(panel: ForecastPanel, actuals, release: ReleaseKind) -> list[QuarterStats]:
    """Per-quarter statistics one quarter at a time, with np.mean on each cell (the reference)."""
    out = []
    rows = panel.release == release
    order = np.lexsort((panel.economist[rows], panel.quarter[rows]))  # each quarter in economist order
    quarter, value = panel.quarter[rows][order], panel.value[rows][order]
    for index in np.unique(quarter).tolist():
        actual, x = float(actuals.at(np.array([index]))[0]), value[quarter == index]
        if math.isnan(actual):
            continue
        rmse = math.sqrt(float(np.mean((x - actual) ** 2)))
        d = x - x.mean()
        m2 = float(np.mean(d**2))
        degenerate = m2**2 == 0.0  # m2 is 0 or so small that its square underflows
        skew = float(np.mean(d**3)) / m2**1.5 if not degenerate and x.size >= 3 else None
        kurt = float(np.mean(d**4)) / m2**2 - 3.0 if not degenerate and x.size >= 4 else None
        out.append(QuarterStats(index, x.size, rmse, math.sqrt(m2), skew, kurt))
    return out


stat_values = st.one_of(values, st.integers(-8, 8).map(lambda k: k / 4))  # grid values make exact ties


@SETTINGS
@given(cells=st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 5)), stat_values, min_size=1, max_size=40),
       actual=st.dictionaries(st.integers(0, 5), stat_values))
@example(cells={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (3, 0): 1.0, (0, 1): 0.5, (0, 2): 0.25, (1, 2): 0.5,
                (0, 3): 1.0, (1, 3): 2.0, (2, 3): 4.0, (0, 4): 2.0},
         actual={0: 1.0, 1: 0.0, 2: 0.5, 3: 1.5})
@example(cells={(0, 1): 1.1294690835806527e-145, (1, 1): 0.0, (2, 1): 0.0}, actual={1: 0.0})  # m2**1.5 underflows
def test_quarter_stats_equal_the_quarter_loop(cells, actual):
    # Quarters with 1 to 8 forecasts (n < 3 and n < 4 included), some with equal values, some with no actual.
    panel = ForecastPanel.from_rows(rec(f"E{e}", START + t, v) for (e, t), v in cells.items())
    actuals = series_from({START + t: v for t, v in actual.items()} or {START + 9: 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = quarter_stats(panel, actuals, ReleaseKind.FIRST)
        assert as_records(QuarterStats, *(getattr(stats, name) for name in QuarterStats._fields)) == (
            quarter_stats_by_loop(panel, actuals, ReleaseKind.FIRST))


class AccuracyComparison(NamedTuple):
    """One forecaster's accuracy comparison, None where a statistic is absent."""

    economist_id: str
    release: ReleaseKind
    n_common: int
    rmse_self: float
    rmse_baseline: float
    dm_statistic: float | None
    hln_statistic: float | None
    p_value_hln: float | None
    note: str = ""


def accuracy_by_loop(panel: ForecastPanel, release: ReleaseKind, base, actuals) -> list[AccuracyComparison]:
    """Each forecaster's accuracy comparison on its own slice, with np.mean (the reference)."""
    rows = panel.release == release
    order = np.flatnonzero(rows)[np.lexsort((panel.quarter[rows], panel.economist[rows]))]
    codes, start = np.unique(panel.economist[order], return_index=True)
    bounds = np.append(start, order.size)
    quarter = panel.quarter[order]
    forecast, baseline_values, actual = panel.value[order], base.at(quarter), actuals.at(quarter)
    out = []
    for code, lo, hi in zip(codes.tolist(), bounds.tolist(), bounds[1:].tolist()):
        f, b, a = forecast[lo:hi], baseline_values[lo:hi], actual[lo:hi]
        common = ~np.isnan(f) & ~np.isnan(b) & ~np.isnan(a)
        if not common.any():
            continue
        e_self, e_base = f[common] - a[common], b[common] - a[common]
        d, n = e_self**2 - e_base**2, int(common.sum())
        dm = hln = p = None
        note = ""
        if n < 2:
            note = f"need at least 2 loss differentials, got {n}"
        else:
            variance = float(np.mean((d - d.mean()) ** 2))
            if variance <= 0.0:
                note = "degenerate comparison: loss differential has zero variance"
            else:
                dm = float(d.mean() / math.sqrt(variance / n))
                hln = dm * math.sqrt((n - 1) / n)
                p = 2.0 * float(t_sf(abs(hln), n - 1))  # one tail call per forecaster
        out.append(AccuracyComparison(
            panel.economist_ids[code], release, n, math.sqrt(float(np.mean(e_self**2))),
            math.sqrt(float(np.mean(e_base**2))), dm, hln, p, note))
    return out


@SETTINGS
@given(cells=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 9)), stat_values, min_size=1, max_size=50),
       base=st.dictionaries(st.integers(0, 9), stat_values, min_size=1),
       actual=st.dictionaries(st.integers(0, 9), stat_values, min_size=1))
@example(cells={(0, 9): 1.0, (1, 0): 0.5, (2, 0): 0.0, (2, 1): 0.25, (2, 2): 0.5,
                **{(3, t): 0.3 * t for t in range(5)}, **{(4, t): 1.0 for t in range(3)}},
         base={0: 0.0, 1: 0.25, 2: 0.5, 3: 0.0, 4: 1.0}, actual={0: 0.5, 1: 0.5, 2: 0.5, 3: 0.25, 4: 0.75})
def test_accuracy_table_equals_the_forecaster_loop(cells, base, actual):
    # Forecasters with no overlap, with one common quarter and with forecasts equal to
    # the baseline (zero-variance differentials).
    # accuracy_table takes the release's p-values in one tail call and the loop one per
    # forecaster, so == also checks that batching changes no bit.
    panel = ForecastPanel.from_rows(rec(f"E{e}", START + t, v) for (e, t), v in cells.items())
    series = series_from({START + t: v for t, v in base.items()})
    actuals = series_from({START + t: v for t, v in actual.items()})
    table = accuracy_table(panel, ReleaseKind.FIRST, series, actuals)
    ids = [panel.economist_ids[code] for code in table.economist.tolist()]
    assert as_records(AccuracyComparison, ids, [ReleaseKind.FIRST] * len(ids),
                      *(getattr(table, name) for name in AccuracyComparison._fields[2:])) == (
        accuracy_by_loop(panel, ReleaseKind.FIRST, series, actuals))


def cell_medians_by_lexsort(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cell_medians`` as it was: one lexsort of (key, value), then the cells from ``np.unique``."""
    order = np.lexsort((value, key))
    keys, start, count = np.unique(key[order], return_index=True, return_counts=True)
    ranked = value[order]
    low, high = ranked[start + (count - 1) // 2], ranked[start + count // 2]
    return keys, np.where(count % 2 == 1, low, (low + high) / 2)


INF, NAN = math.inf, math.nan
HUGE_CELL = [(7, float(i % 5) - 2.0) for i in range(400)] + [(k, 0.5 * k) for k in range(100, 0, -1)]
SIGNED_ZEROS = [(i % 2, (0.0, 1.0, -0.0, -1.0, -0.0, 0.0, 2.0, -2.0, 0.0)[i % 9]) for i in range(601)]


@SETTINGS
@given(rows=st.lists(st.tuples(st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1)),
                               st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, INF, -INF, NAN]), st.floats())),
                     max_size=80))
@example(rows=[])
@example(rows=[(5, 1.5)])
@example(rows=[(1, 3.0), (1, 1.0), (1, 2.0), (1, 5.0), (2, 1.0), (2, 2.0)])
@example(rows=[(0, 0.0), (0, -0.0), (1, -0.0), (1, 0.0), (2, 0.0), (2, -0.0), (2, 1.0)])
@example(rows=[(0, INF), (0, -INF), (1, INF), (1, 1.0), (2, -INF), (2, -INF)])
@example(rows=[(0, NAN), (0, 1.0), (0, 2.0), (1, NAN), (1, NAN), (2, 1.0), (2, NAN), (2, 0.0)])
@example(rows=[(9, 1.0), (-4, 2.0), (3, 0.5), (9, -1.0), (-4, 0.0), (3, 3.0), (0, 7.0)])
@example(rows=HUGE_CELL)
@example(rows=SIGNED_ZEROS)
def test_cell_medians_equal_the_lexsort_version_byte_for_byte(rows):
    # Keys in any order, NaN (library callers may pass it), infinities, and 0.0 and -0.0
    # in both row orders: the grouped-then-per-cell sort must pick the same bits.
    key = np.array([k for k, _ in rows], dtype=np.int64)
    value = np.array([v for _, v in rows], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and overflowing midpoints
        keys, medians = panel_module.cell_medians(key, value)
        want_keys, want_medians = cell_medians_by_lexsort(key, value)
    assert keys.dtype == want_keys.dtype and medians.dtype == want_medians.dtype
    assert keys.tobytes() == want_keys.tobytes()
    assert medians.tobytes() == want_medians.tobytes()
