"""Command-line entry point wiring ingestion, analyses and report emission.

Every command is deterministic given its inputs and seed; ``report`` runs the
full pipeline and writes the eight table-shaped CSVs plus a manifest with the
effective configuration and its hash.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import sys
import warnings
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .accuracy import accuracy_table, beat_baseline_share
from .armodel import DEFAULT_MAX_LAG, ARForecasts, fill_missing, recursive_ar_forecast
from .descriptive import armse, quarter_stats
from .errors import JudgebenchError
from .judgment import (
    DEFAULT_THRESHOLDS,
    HISTOGRAM_BINS,
    SIGN_SHARE_COLUMNS,
    BaselineSeries,
    JudgmentPanel,
    baseline,
    baseline_hit_stats,
    extract_judgments,
    negative_share_histogram,
    passes_threshold,
    sign_shares,
)
from .linreg import test_battery_aggregate, test_battery_individual
from .panel import (
    FORECASTS_HEADER,
    ForecastPanel,
    QuarterSeries,
    SpfNowcasts,
    clean_panel,
    joint_coverage,
    load_actuals,
    load_forecasts,
    load_spf,
    participation_share,
)
from .panelreg import REGRESSOR_KINDS, persistence_battery
from .quarters import ReleaseKind, parse_quarter, quarter_label
from .syngen import SynthConfig, _ids, recovery_experiment, simulate_world

RELEASES = (ReleaseKind.FIRST, ReleaseKind.SECOND, ReleaseKind.THIRD)
RELEASE_LABEL = {ReleaseKind.FIRST: "first", ReleaseKind.SECOND: "second", ReleaseKind.THIRD: "third"}
BASELINE_METHODS = ("median", "mean")


class RunConfig(SynthConfig):
    """Effective run configuration; flags override config-file values.

    Each annotated attribute here or in ``SynthConfig`` declares one setting:
    its config key, its flag and its default, whose type is the setting's
    type.  Each keyword argument replaces the default of the attribute it
    names, and the simulator's settings pass ``SynthConfig``'s checks.
    """

    actuals: str | None = None
    forecasts: str | None = None
    spf: str | None = None
    sample_from: str | None = None
    sample_to: str | None = None
    baseline_method: str = "median"
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    alpha: float = 0.05
    hac_lag: str = "auto"  # "auto" or an integer literal
    ar_lag: str = "1"      # "auto" or an integer literal
    out: str = "out"
    replications: int = 100

    def __init__(self, **settings):
        super().__init__(**settings)
        if self.replications < 1:
            raise ValueError("need at least one replication")

    def semantic_dict(self) -> dict:
        """Fields that affect results (output location excluded)."""
        return {name: getattr(self, name) for name in SETTINGS if name != "out"}

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


SETTINGS = RunConfig.settings()  # every setting's name and default, the simulator's first
FLAGS = {name: "--" + name.replace("_", "-") for name in SETTINGS} | {
    "sample_from": "--from", "sample_to": "--to", "baseline_method": "--baseline"}
CHOICES = {"baseline_method": BASELINE_METHODS}
LAG_LIMITS = {"hac_lag": math.inf, "ar_lag": DEFAULT_MAX_LAG}  # "auto" or an integer in 0..limit, stored as digits
# The types a setting takes, by its default's type; a float setting stores a float, so 1 hashes as --grid 1.
TAKES = {int: (int,), float: (int, float), str: (str,), type(None): (str, type(None))}
# Every real-valued setting must be finite, and these must also be in range (for thresholds, each one).
IN_RANGE = {"alpha": lambda x: 0 < x < 1, "grid": lambda x: x >= 0, "thresholds": lambda x: 0 <= x <= 1}


class CliError(Exception):
    """A usage error: bad arguments, config keys or input paths (exit status 2)."""


def _one_line(text) -> str:
    """``str(text)`` with CR and LF escaped, so an echoed value cannot break a message's line."""
    return str(text).replace("\r", "\\r").replace("\n", "\\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class CodedColumn(NamedTuple):
    """A table column given as its distinct cells and each row's code into them."""

    table: Sequence
    codes: np.ndarray


def _cells(column) -> list[str]:
    """One column's cells as text, each distinct cell formatted once by ``_fmt``.

    A numeric numpy column is coded by bit pattern, so -0.0 and 0.0 stay apart.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "b":
        column = CodedColumn([False, True], column.view(np.uint8))
    elif isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        distinct, codes = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        column = CodedColumn(distinct.view(column.dtype).tolist(), codes)
    if isinstance(column, CodedColumn):
        return np.array([_fmt(cell) for cell in column.table], dtype=object)[column.codes].tolist()
    return [_fmt(cell) for cell in column]


def write_csv(path: Path, header: list[str], columns: list, comment: str | None = None) -> Path:
    """Write one table from its columns and return its path.

    ``columns`` holds one column per header field, all of one length: a
    numpy array, a ``CodedColumn`` or a sequence of cells.  Every cell is
    written by the rule of ``_fmt``: a float with 12 significant digits (-0
    kept), NaN and None empty, a bool as 1 or 0, anything else by ``str``.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    cells = [_cells(column) for column in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))
    return path


def _add_row(columns: list[list], *cells) -> None:
    """Append one row's cells to a small table's columns."""
    for column, cell in zip(columns, cells, strict=True):
        column.append(cell)


def _stacked(tables: list[SimpleNamespace], *names: str) -> list:
    """Each named column of the tables, one table after another; a list column (notes) stays a list."""
    columns = [[getattr(table, name) for table in tables] for name in names]
    return [[x for part in parts for x in part] if isinstance(parts[0], list) else np.concatenate(parts)
            for parts in columns]


def _quarter_labels(indexes: np.ndarray) -> CodedColumn:
    """The ``YYYYQn`` label of each quarter index, as codes into the labels of their span."""
    first, last = (int(indexes.min()), int(indexes.max())) if indexes.size else (0, -1)
    return CodedColumn([quarter_label(i) for i in range(first, last + 1)], indexes - first)


def _stack_series(series: list[QuarterSeries], *arrays: str) -> tuple:
    """The present quarters of each series, one series after another.

    Returns their labels, each series' count of them, and each named array
    of the series at them.
    """
    present = [s.quarters() for s in series]
    return (_quarter_labels(np.concatenate(present)), [q.size for q in present],
            *(np.concatenate([getattr(s, name)[q - s.start] for s, q in zip(series, present)]) for name in arrays))


def _release_labels(release: np.ndarray) -> CodedColumn:
    """The label of each row's release number."""
    return CodedColumn([RELEASE_LABEL[rel] for rel in RELEASES], np.searchsorted(RELEASES, release))


def _require_input(path: str | None, what: str) -> Path:
    if path is None:
        raise CliError(f"error: missing-argument name=--{what}")
    p = Path(path)
    if not p.exists():
        raise CliError(f"error: missing-input path={p}")
    return p


def _output_dir(path: str) -> Path:
    """``--out`` as a path; a usage error where it, or the nearest of its parents that exists, is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())  # a dangling link too
    if not existing.is_dir():
        raise CliError(f"error: out-not-a-directory path={existing}")
    return out


def _remove_listed_outputs(out: Path) -> None:
    """Delete each plain file name directly inside ``out`` that an earlier report's manifest lists as an output."""
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, TypeError, KeyError):  # no readable manifest: nothing is known to be ours
        return
    for name in listed if isinstance(listed, list) else []:
        if isinstance(name, str) and Path(name).name == name and (out / name).is_file():  # "..": not a file
            (out / name).unlink()


class Study:
    """One run's inputs and everything derived from them, each computed once.

    Inputs load on first use, so a command reads only the files it needs,
    and ``digests`` holds the SHA-256 of the bytes read from each input.
    Derived values are memoized, so the report stages share one cleaned
    panel, one baseline per (release, method) and one set of judgments.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._baselines: dict[tuple[ReleaseKind, str], BaselineSeries] = {}
        self.digests: dict[str, str] = {}

    def _load(self, what: str, loader):
        digest = hashlib.sha256()
        path = _require_input(getattr(self.cfg, what), what)
        try:
            loaded = loader(path, digest)
        except OSError as exc:  # a directory, or a file that cannot be read
            raise CliError(f"error: unreadable-input path={path} detail={exc.strerror}") from None
        self.digests[what] = digest.hexdigest()
        return loaded

    @cached_property
    def panel(self) -> ForecastPanel:
        """The cleaned forecasts, restricted to the --from/--to sample."""
        cleaned, _ = clean_panel(self._load("forecasts", load_forecasts))
        if not (self.cfg.sample_from or self.cfg.sample_to):
            return cleaned
        inside = np.ones(len(cleaned), dtype=bool)
        if self.cfg.sample_from:
            inside &= cleaned.quarter >= parse_quarter(self.cfg.sample_from)
        if self.cfg.sample_to:
            inside &= cleaned.quarter <= parse_quarter(self.cfg.sample_to)
        return cleaned.take(inside)

    @cached_property
    def actuals(self) -> dict[ReleaseKind, QuarterSeries]:
        return self._load("actuals", load_actuals)

    @cached_property
    def spf(self) -> SpfNowcasts:
        return self._load("spf", load_spf)

    def baseline(self, rel: ReleaseKind, method: str | None = None) -> BaselineSeries:
        """One release's baseline; the method defaults to the run's."""
        key = (rel, method or self.cfg.baseline_method)
        if key not in self._baselines:
            self._baselines[key] = baseline(self.panel, *key)
        return self._baselines[key]

    @cached_property
    def judgments(self) -> dict[ReleaseKind, JudgmentPanel]:
        """Each release's judgments against the run's baseline."""
        return {rel: extract_judgments(self.panel, self.baseline(rel), grid=self.cfg.grid) for rel in RELEASES}

    @cached_property
    def participation(self) -> dict[ReleaseKind, np.ndarray]:
        """Each release's participation share per economist code of the panel."""
        return {rel: participation_share(self.panel, rel) for rel in RELEASES}

    @cached_property
    def ar_forecasts(self) -> dict[ReleaseKind, ARForecasts]:
        """Recursive AR forecasts of each release for every quarter with enough presample."""
        lag = None if self.cfg.ar_lag == "auto" else int(self.cfg.ar_lag)
        return {rel: recursive_ar_forecast(fill_missing(series), lag=lag) for rel, series in self.actuals.items()}

    @cached_property
    def comparisons(self) -> dict[ReleaseKind, SimpleNamespace]:
        """Each release's per-forecaster accuracy against the run's baseline."""
        return {rel: accuracy_table(self.panel, self.baseline(rel), self.actuals[rel]) for rel in RELEASES}


# ---------------------------------------------------------------------------
# Command implementations.  Each writes tables from a Study and returns the
# list of files written.
# ---------------------------------------------------------------------------


def cmd_describe(study: Study, out: Path) -> list[Path]:
    stats = [quarter_stats(study.panel, study.actuals[rel], rel) for rel in RELEASES]
    described = [(rel, s) for rel, s in zip(RELEASES, stats) if s.quarter.size]

    def spread(name: str) -> tuple[list, list, list]:
        """Average, min and max of one statistic's present values over each described release's quarters."""
        columns = ([], [], [])
        for _, s in described:
            xs = [x for x in getattr(s, name).tolist() if not math.isnan(x)]
            for column, value in zip(columns, (sum(xs) / len(xs), min(xs), max(xs)) if xs else (None,) * 3):
                column.append(value)
        return columns

    _, min_rmse, max_rmse = spread("rmse")
    names = ("quarter", "n", "rmse", "std_dev", "skewness", "excess_kurtosis")
    quarter, *columns = _stacked(stats, *names)
    return [
        write_csv(out / "quarter_stats.csv", ["release", *names],
                  [_release_labels(np.repeat(RELEASES, [s.quarter.size for s in stats])),
                   _quarter_labels(quarter), *columns],
                  comment="per-quarter cross-sectional statistics (kurtosis is excess: normal = 0)"),
        write_csv(out / "table1_descriptive.csv",
                  ["release", "avg_n", "min_n", "max_n", "armse", "min_rmse", "max_rmse",
                   "avg_std", "min_std", "max_std", "avg_skew", "min_skew", "max_skew",
                   "avg_excess_kurt", "min_excess_kurt", "max_excess_kurt"],
                  [[RELEASE_LABEL[rel] for rel, _ in described], *spread("n"),
                   [armse(s.rmse) for _, s in described], min_rmse, max_rmse,
                   *spread("std_dev"), *spread("skewness"), *spread("excess_kurtosis")],
                  comment="table 1: descriptive statistics by release (averages with min/max across quarters)"),
    ]


def cmd_table2(study: Study, out: Path) -> list[Path]:
    panel, thresholds = study.panel, study.cfg.thresholds
    metrics = ["total_predictions", "n_economists", *(f"n_economists_ge_{_fmt(thr * 100)}pct" for thr in thresholds)]
    counts = []
    for rel in RELEASES:
        share = study.participation[rel]
        present = share > 0  # a share's denominator, the release's span, is at least 1
        counts += [np.count_nonzero(panel.release == rel), np.count_nonzero(present),
                   *(np.count_nonzero(present & passes_threshold(share, thr)) for thr in thresholds)]
    joint = [f"joint_cells_releases_{releases}" for releases in ("1_2", "1_3", "2_3", "1_2_3")]
    return [write_csv(out / "table2_participation.csv", ["metric", "release", "value"],
                      [metrics * len(RELEASES) + joint,
                       [RELEASE_LABEL[rel] for rel in RELEASES for _ in metrics] + [""] * len(joint),
                       counts + list(joint_coverage(panel))],
                      comment="table 2: participation and joint-coverage counts "
                              "(joint counts are economist-quarter cells)")]


def cmd_judgment(study: Study, out: Path) -> list[Path]:
    cfg, panel, thresholds = study.cfg, study.panel, study.cfg.thresholds
    bases = [study.baseline(rel) for rel in RELEASES]
    judgments = [study.judgments[rel] for rel in RELEASES]
    shares = [sign_shares(jp, study.participation[rel], thresholds) for rel, jp in zip(RELEASES, judgments)]
    hist = np.concatenate([negative_share_histogram(jp, study.participation[rel], thresholds)
                           for rel, jp in zip(RELEASES, judgments)])  # one row per (release, threshold)
    hits = [baseline_hit_stats(base, study.actuals[rel], grid=cfg.grid) for rel, base in zip(RELEASES, bases)]
    base_quarters, base_sizes, base_values = _stack_series(bases, "values")
    return [
        write_csv(out / f"baseline_{cfg.baseline_method}.csv", ["release", "quarter", "value"],
                  [_release_labels(np.repeat(RELEASES, base_sizes)), base_quarters, base_values]),
        write_csv(out / "judgments.csv", ["economist_id", "quarter", "release", "judgment", "neutral"],
                  # The panel is the three release slices in sequence, as the judgments are.
                  [CodedColumn(panel.economist_ids, panel.economist), _quarter_labels(panel.quarter),
                   _release_labels(panel.release),
                   np.concatenate([jp.value for jp in judgments]), np.concatenate([jp.neutral for jp in judgments])]),
        write_csv(out / "table3_sign_shares.csv", ["release", "threshold", "n_economists", *SIGN_SHARE_COLUMNS],
                  [_release_labels(np.repeat(RELEASES, len(thresholds))), np.tile(thresholds, len(RELEASES)),
                   *_stacked(shares, "n_economists", *SIGN_SHARE_COLUMNS)],
                  comment="table 3: cross-economist sign shares of judgments by participation threshold"),
        write_csv(out / "fig3_negative_histogram.csv", ["release", "threshold", "bin", "count"],
                  [_release_labels(np.repeat(RELEASES, len(thresholds) * len(HISTOGRAM_BINS))),
                   np.repeat(np.tile(thresholds, len(RELEASES)), len(HISTOGRAM_BINS)),
                   list(HISTOGRAM_BINS) * len(hist), hist.ravel()],
                  comment="negative-judgment share histogram (non-neutral judgments only)"),
        write_csv(out / "baseline_hits.csv", ["release", "correct", "overprediction", "underprediction"],
                  [[RELEASE_LABEL[rel] for rel in RELEASES], *zip(*hits)],
                  comment="baseline vs actual on the reporting grid"),
    ]


def cmd_efficiency(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    hac_lag = None if cfg.hac_lag == "auto" else int(cfg.hac_lag)
    keys = sorted((rel, method) for rel in RELEASES for method in BASELINE_METHODS)  # "mean" before "median"
    cells = test_battery_aggregate({key: study.baseline(*key) for key in keys}, study.actuals, study.spf,
                                   study.ar_forecasts, hac_lag=hac_lag)
    details, shares = test_battery_individual(
        study.panel, study.actuals, study.spf, study.ar_forecasts, study.participation,
        thresholds=cfg.thresholds, alpha=cfg.alpha,
    )
    share_names = ("threshold", "n_qualifying", "share_unbiased", "share_efficient", "n_tested_unbiased",
                   "n_tested_efficient", "n_excluded_unbiased", "n_excluded_efficient")
    return [
        write_csv(out / "table4_aggregate_tests.csv",
                  ["release", "method", "unbiasedness_p", "efficiency_p", "rmse", "errors"],
                  [[RELEASE_LABEL[rel] for rel, _ in keys], [method for _, method in keys],
                   cells.unbiasedness_p, cells.efficiency_p, cells.rmse, cells.errors],
                  comment="table 4: baseline unbiasedness/efficiency p-values (HAC) and RMSE"),
        write_csv(out / "table5_individual_tests.csv", ["release", *share_names],
                  [_release_labels(shares.release), *(getattr(shares, name) for name in share_names)],
                  comment=f"table 5: share of forecasters not rejected at the {cfg.alpha:g} level"),
        write_csv(out / "individual_detail.csv",
                  ["economist_id", "release", "n_obs", "alpha_hat", "beta_hat",
                   "p_unbiased", "p_efficient", "note"],
                  [CodedColumn(study.panel.economist_ids, details.economist), _release_labels(details.release),
                   details.nobs, details.alpha_hat, details.beta_hat, details.p_unbiased, details.p_efficient,
                   details.note]),
    ]


def cmd_accuracy(study: Study, out: Path) -> list[Path]:
    thresholds = study.cfg.thresholds
    tables = [study.comparisons[rel] for rel in RELEASES]
    names = ("economist", "n_common", "rmse_self", "rmse_baseline", "dm_statistic", "hln_statistic",
             "p_value_hln", "note")
    economist, *columns = _stacked(tables, *names)
    beat = [beat_baseline_share(table, study.participation[rel], thresholds) for rel, table in zip(RELEASES, tables)]
    return [
        write_csv(out / "accuracy_comparisons.csv", ["economist_id", "release", *names[1:]],
                  [CodedColumn(study.panel.economist_ids, economist),
                   _release_labels(np.repeat(RELEASES, [t.economist.size for t in tables])), *columns],
                  comment="per-forecaster accuracy vs baseline over common quarters"),
        write_csv(out / "beat_shares.csv", ["release", "threshold", "share_beating_baseline"],
                  [_release_labels(np.repeat(RELEASES, len(thresholds))), np.tile(thresholds, len(RELEASES)),
                   np.concatenate(beat)]),
    ]


def cmd_persistence(study: Study, out: Path) -> list[Path]:
    cells, broken = persistence_battery(study.judgments)
    failed = np.array([bool(error) for error in cells.error])
    names = ("regressor", "spec", "beta", "se_clustered", "stars", "p_value", "n_obs", "n_forecasters", "r_squared",
             "r_squared_overall", "error")
    columns = [np.where(failed, None, getattr(cells, name)) if name in ("n_obs", "n_forecasters")
               else getattr(cells, name) for name in names]
    size = failed.size // len(RELEASES)  # each release's cells, regressor by spec, as the tables list them
    files = [write_csv(
        out / f"table{5 + rel.value}_persistence_{RELEASE_LABEL[rel]}.csv",
        ["column", "regressor", "spec", "beta", "se_clustered", "stars", "p_value", "n_obs", "n_forecasters",
         "r_squared_within", "r_squared_overall", "error"],
        [np.arange(1, size + 1), *(column[k * size:(k + 1) * size] for column in columns)],
        comment=f"table {5 + rel.value}: judgment persistence, {RELEASE_LABEL[rel]} release "
                "(clustered on forecasters; stars at 10/5/1%)") for k, rel in enumerate(RELEASES)]
    singles = np.flatnonzero(cells.singletons_dropped)
    release = np.concatenate([cells.release[singles], np.repeat(RELEASES, len(REGRESSOR_KINDS))])
    order = np.argsort(release, kind="stable")  # each release's singleton rows, then its broken chains
    diagnostics = [np.concatenate([cells.regressor[singles], np.tile(REGRESSOR_KINDS, len(RELEASES))]),
                   np.concatenate([cells.spec[singles], [""] * broken.size]),
                   np.repeat(["singletons_dropped", "broken_lag_chains"], [singles.size, broken.size]),
                   np.concatenate([cells.singletons_dropped[singles], broken])]
    return [*files, write_csv(out / "persistence_diagnostics.csv", ["release", "regressor", "spec", "metric", "value"],
                              [_release_labels(release[order]), *(column[order] for column in diagnostics)])]


def cmd_ar_forecast(study: Study, out: Path) -> list[Path]:
    quarters, sizes, values, p_used = _stack_series([study.ar_forecasts[rel] for rel in RELEASES], "values", "p_used")
    return [write_csv(out / "ar_forecasts.csv", ["quarter", "release", "forecast", "p_used"],
                      [quarters, _release_labels(np.repeat(RELEASES, sizes)), values, p_used])]


def cmd_simulate(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    world = simulate_world(cfg)
    ids = _ids(world.config.n_forecasters)
    quarters, sizes, values = _stack_series([world.actuals[rel] for rel in RELEASES], "values")
    # forecasts.csv lists the rows by (economist, quarter, release), as it always has.
    panel = world.panel.take(np.lexsort((world.panel.release, world.panel.quarter, world.panel.economist)))
    spf = world.spf.median.quarters()
    files = [
        write_csv(out / "actuals.csv", ["quarter", "release", "value"],
                  [quarters, np.repeat([rel.value for rel in RELEASES], sizes), values]),
        write_csv(out / "forecasts.csv", FORECASTS_HEADER, [
            _quarter_labels(panel.quarter), panel.release, CodedColumn(panel.economist_ids, panel.economist),
            CodedColumn(ids.firm_ids, ids.firm[ids.by_code][panel.economist]), panel.value, [""] * len(panel),
        ]),
        write_csv(out / "spf.csv", ["quarter", "median", "mean"], [
            _quarter_labels(spf), world.spf.median.at(spf), world.spf.mean.at(spf),
        ]),
    ]
    truth = [[], [], [], [], []]
    t = world.truth
    labels = [quarter_label(q) for q in t.quarters.tolist()]
    for k in range(3):
        for i_q, q in enumerate(labels):
            _add_row(truth, "baseline", "", q, k + 1, t.baselines[k, i_q])
    for i, econ in enumerate(t.economists):
        _add_row(truth, "rho_own", econ, "", "", t.rho_i[i])
        for i_q, q in enumerate(labels):
            for k in range(3):
                _add_row(truth, "judgment", econ, q, k + 1, t.judgments[i, i_q, k])
    files.append(write_csv(out / "truth.csv", ["kind", "economist_id", "quarter", "release", "value"], truth))
    return files


def cmd_recovery(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    fits = recovery_experiment(cfg, cfg.replications)
    for rep, error in enumerate(fits.error):
        if error:
            warnings.warn(f"replication {rep}: {error}")
    betas = fits.beta[[not error for error in fits.error]]
    n = betas.size
    stats = (betas.mean(), betas.std(ddof=1) if n > 1 else 0.0, fits.covered.sum() / n) if n else (None,) * 3
    return [write_csv(out / "recovery_summary.csv", ["replications", "n_completed", "n_failed", "mean_beta",
                                                     "sd_beta", "ci_coverage_95", "rho_own_true"],
                      [[cell] for cell in (cfg.replications, n, cfg.replications - n, *stats, cfg.rho_own)])]


def cmd_report(study: Study, out: Path) -> list[Path]:
    # Read every input before the first stage, so a bad file ends the run
    # with one error instead of a diagnostics row from each stage, and
    # leaves an earlier report in ``out`` as it was.
    study.panel, study.actuals, study.spf
    _remove_listed_outputs(out)
    files = []
    diagnostics = [[], []]
    # Looked up at call time, so a tracer that rebinds the module's cmd_*
    # attributes times each stage.  A stage's error and each warning it
    # raises become rows of diagnostics.csv, not lines on stderr.
    for name, fn in [
        ("describe", cmd_describe),
        ("table2", cmd_table2),
        ("judgment", cmd_judgment),
        ("efficiency", cmd_efficiency),
        ("accuracy", cmd_accuracy),
        ("persistence", cmd_persistence),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                files.extend(fn(study, out))
            except (JudgebenchError, ValueError) as exc:
                _add_row(diagnostics, name, str(exc))
        for warning in caught:
            _add_row(diagnostics, name, str(warning.message))
    if diagnostics[0]:
        files.append(write_csv(out / "diagnostics.csv", ["stage", "error"], diagnostics))
    cfg = study.cfg
    manifest = {
        "artifact": "judgebench",
        "version": __version__,
        "config": cfg.semantic_dict(),
        "config_hash": cfg.config_hash(),
        "inputs": study.digests,
        "outputs": sorted(p.name for p in files),
    }
    p = out / "manifest.json"
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(p)
    return files


COMMANDS = {
    "describe": cmd_describe,
    "judgment": cmd_judgment,
    "efficiency": cmd_efficiency,
    "accuracy": cmd_accuracy,
    "persistence": cmd_persistence,
    "ar-forecast": cmd_ar_forecast,
    "simulate": cmd_simulate,
    "recovery": cmd_recovery,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="judgebench", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for name, default in SETTINGS.items():
        kind = type(default)
        parser.add_argument(FLAGS[name], dest=name, type=kind if kind in (int, float) else None,
                            choices=CHOICES.get(name))
    return parser


def _real(name: str, value) -> float:
    """A real-valued setting's value as a float; raises ValueError unless it is finite and in its range."""
    if math.isfinite(x := float(value)) and IN_RANGE.get(name, math.isfinite)(x):
        return x
    raise ValueError(x)


def _checked(name: str, value):
    """A setting's value, from a flag or the config file, in the one form it is stored and hashed in."""
    default = SETTINGS[name]
    try:
        if name in LAG_LIMITS:
            text = str(value)
            if text == "auto" or (text.isascii() and text.isdigit() and int(text) <= LAG_LIMITS[name]):
                return text if text == "auto" else str(int(text))
        elif name == "thresholds":  # the flag's text, or a config-file list of at least one number
            items = value.split(",") if isinstance(value, str) else value
            if isinstance(value, str) or items and all(type(t) in TAKES[float] for t in items):
                thresholds = tuple(_real(name, t) for t in items)
                # Each threshold labels its rows by _fmt of itself and of its percent, so both must differ.
                if len({_fmt(t) for t in thresholds}) == len({_fmt(100 * t) for t in thresholds}) == len(items):
                    return thresholds
        elif type(value) in TAKES[type(default)] and value in CHOICES.get(name, (value,)):
            if name in ("sample_from", "sample_to") and value is not None:
                parse_quarter(value)
            return _real(name, value) if type(default) is float else value
    except (TypeError, ValueError, OverflowError):  # a QuarterParseError is a ValueError
        pass
    raise CliError(f"error: invalid-value name={FLAGS[name]} value={value}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's configuration: defaults, then the config file, then the flags, each value checked."""
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise ValueError("not a JSON object")
        except FileNotFoundError:
            raise CliError(f"error: missing-input path={args.config}") from None
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 JSON, or not an object
            raise CliError(f"error: invalid-config path={args.config} detail={exc}") from None
        if unknown := values.keys() - SETTINGS.keys():
            raise CliError(f"error: unknown-config-keys keys={','.join(sorted(unknown))}")
    values.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    checked = {name: _checked(name, value) for name, value in values.items()}
    try:  # the simulator's own checks of its settings, and the replication count's
        return RunConfig(**checked)
    except ValueError as exc:
        raise CliError(f"error: invalid-value detail={exc}") from None


def main(argv: list[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Run from ``sys.argv`` (the console script, ``python -m``), the process
    ends when this returns, so the run's objects are frozen out of the
    interpreter's exit-time cyclic collection: a walk over every numpy object
    that frees nothing.  ``os._exit`` would also skip atexit handlers.  A
    caller that passes ``argv`` keeps its collector as it was.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every message is one line on stderr, whatever the paths and values it echoes.  A
    # warning that a filter turns into an error (-W, PYTHONWARNINGS) still raises.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(_one_line(f"warning: {message}"), file=sys.stderr)
        try:
            cfg = config_from_args(args)
            files = COMMANDS[args.command](Study(cfg), _output_dir(cfg.out))
        except CliError as exc:
            print(_one_line(exc), file=sys.stderr)
            return 2
        except JudgebenchError as exc:
            print(_one_line(f"error: {type(exc).__name__.lower()} detail={exc}"), file=sys.stderr)
            return 1
        finally:
            if argv is None:
                gc.freeze()
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
