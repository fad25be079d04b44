"""Command-line entry point wiring ingestion, analyses and report emission.

Every command is deterministic given its inputs and seed; ``report`` runs the
full pipeline and writes the eight table-shaped CSVs plus a manifest with the
effective configuration and its hash.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .accuracy import AccuracyComparison, accuracy_table, beat_baseline_share
from .armodel import MIN_PRESAMPLE, ARForecasts, ARSpec, fill_missing, recursive_ar_forecast
from .descriptive import armse, quarter_stats
from .errors import JudgebenchError
from .judgment import (
    DEFAULT_GRID,
    DEFAULT_THRESHOLDS,
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
    ActualSeries,
    ForecastPanel,
    SpfNowcasts,
    clean_panel,
    joint_coverage,
    load_actuals,
    load_forecasts,
    load_spf,
    participation_share,
)
from .panelreg import REGRESSOR_KINDS, SPECS, persistence_battery
from .quarters import Quarter, ReleaseKind, parse_quarter
from .syngen import SynthConfig, recovery_experiment, simulate_world

RELEASES = (ReleaseKind.FIRST, ReleaseKind.SECOND, ReleaseKind.THIRD)
RELEASE_LABEL = {ReleaseKind.FIRST: "first", ReleaseKind.SECOND: "second", ReleaseKind.THIRD: "third"}
BASELINE_METHODS = ("median", "mean")


@dataclass
class RunConfig:
    """Effective run configuration; flags override config-file values."""

    actuals: str | None = None
    forecasts: str | None = None
    spf: str | None = None
    sample_from: str | None = None
    sample_to: str | None = None
    baseline_method: str = "median"
    grid: float = DEFAULT_GRID
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    alpha: float = 0.05
    hac_lag: str = "auto"  # "auto" or an integer literal
    ar_lag: str = "1"      # "auto" or an integer literal
    out: str = "out"
    seed: int = 12345
    replications: int = 100
    # Synthetic-world knobs (simulate / recovery).
    n_forecasters: int = 50
    n_quarters: int = 92
    rho_own: float = 0.1
    rho_own_sd: float = 0.0
    kappa: float = 0.0
    judgment_sd: float = 0.2
    p_neutral: float = 0.0
    participation_low: float = 1.0
    participation_high: float = 1.0

    def semantic_dict(self) -> dict:
        """Fields that affect results (output location excluded)."""
        data = asdict(self)
        data.pop("out")
        data["thresholds"] = list(self.thresholds)
        return data

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_forecasters=self.n_forecasters,
            n_quarters=self.n_quarters,
            seed=self.seed,
            rho_own=self.rho_own,
            rho_own_sd=self.rho_own_sd,
            kappa=self.kappa,
            judgment_sd=self.judgment_sd,
            p_neutral=self.p_neutral,
            participation_low=self.participation_low,
            participation_high=self.participation_high,
            grid=self.grid,
        )


class CliError(Exception):
    """A usage error: bad arguments, config keys or input paths (exit status 2)."""


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


def write_csv(path: Path, header: list[str], rows: list[list], comment: str | None = None) -> Path:
    """Write one table and return its path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    return path


def _quarter_labels(indexes: np.ndarray) -> list[str]:
    """``YYYYQn`` for each quarter index."""
    label = {i: str(Quarter.from_index(i)) for i in np.unique(indexes).tolist()}
    return [label[i] for i in indexes.tolist()]


def _require_input(path: str | None, what: str) -> Path:
    if path is None:
        raise CliError(f"error: missing-argument name=--{what}")
    p = Path(path)
    if not p.exists():
        raise CliError(f"error: missing-input path={p}")
    return p


class Study:
    """One run's inputs and everything derived from them, each computed once.

    Inputs load on first use, so a command reads only the files it needs.
    Derived values are memoized, so the report stages share one cleaned
    panel, one baseline per (release, method) and one set of judgments.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._baselines: dict[tuple[ReleaseKind, str], BaselineSeries] = {}

    @cached_property
    def panel(self) -> ForecastPanel:
        """The cleaned forecasts, restricted to the --from/--to sample."""
        cleaned, _ = clean_panel(load_forecasts(_require_input(self.cfg.forecasts, "forecasts")))
        if not (self.cfg.sample_from or self.cfg.sample_to):
            return cleaned
        inside = np.ones(len(cleaned), dtype=bool)
        if self.cfg.sample_from:
            inside &= cleaned.quarter >= parse_quarter(self.cfg.sample_from).index
        if self.cfg.sample_to:
            inside &= cleaned.quarter <= parse_quarter(self.cfg.sample_to).index
        return cleaned.take(inside)

    @cached_property
    def actuals(self) -> dict[ReleaseKind, ActualSeries]:
        return load_actuals(_require_input(self.cfg.actuals, "actuals"))

    @cached_property
    def spf(self) -> SpfNowcasts:
        return load_spf(_require_input(self.cfg.spf, "spf"))

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
        spec = ARSpec(p=1, reselect=True) if self.cfg.ar_lag == "auto" else ARSpec(p=int(self.cfg.ar_lag))
        presample = MIN_PRESAMPLE + (0 if spec.reselect else spec.p)
        out = {}
        for rel, series in self.actuals.items():
            series = fill_missing(series)
            out[rel] = recursive_ar_forecast(series, series.quarter_index()[presample:], spec)
        return out

    @cached_property
    def comparisons(self) -> dict[ReleaseKind, list[AccuracyComparison]]:
        """Each release's per-forecaster accuracy against the run's baseline."""
        return {rel: accuracy_table(self.panel, self.baseline(rel), self.actuals[rel]) for rel in RELEASES}


# ---------------------------------------------------------------------------
# Command implementations.  Each writes tables from a Study and returns the
# list of files written.
# ---------------------------------------------------------------------------


def cmd_describe(study: Study, out: Path) -> list[Path]:
    stat_rows = []
    table1_rows = []
    for rel in RELEASES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = quarter_stats(study.panel, study.actuals[rel], rel)
        for s in stats:
            stat_rows.append(
                [RELEASE_LABEL[rel], str(s.quarter), s.n, s.rmse, s.std_dev, s.skewness, s.excess_kurtosis]
            )
        if not stats:
            continue
        ns = [s.n for s in stats]
        rmses = [s.rmse for s in stats]
        stds = [s.std_dev for s in stats]
        skews = [s.skewness for s in stats if s.skewness is not None]
        kurts = [s.excess_kurtosis for s in stats if s.excess_kurtosis is not None]

        def agg(xs):
            if not xs:
                return (None, None, None)
            return (sum(xs) / len(xs), min(xs), max(xs))

        table1_rows.append(
            [RELEASE_LABEL[rel], *agg(ns), armse(stats), min(rmses), max(rmses),
             *agg(stds), *agg(skews), *agg(kurts)]
        )
    return [
        write_csv(out / "quarter_stats.csv",
                  ["release", "quarter", "n", "rmse", "std_dev", "skewness", "excess_kurtosis"], stat_rows,
                  comment="per-quarter cross-sectional statistics (kurtosis is excess: normal = 0)"),
        write_csv(out / "table1_descriptive.csv",
                  ["release", "avg_n", "min_n", "max_n", "armse", "min_rmse", "max_rmse",
                   "avg_std", "min_std", "max_std", "avg_skew", "min_skew", "max_skew",
                   "avg_excess_kurt", "min_excess_kurt", "max_excess_kurt"], table1_rows,
                  comment="table 1: descriptive statistics by release (averages with min/max across quarters)"),
    ]


def cmd_table2(study: Study, out: Path) -> list[Path]:
    panel, thresholds = study.panel, study.cfg.thresholds
    rows = []
    for rel in RELEASES:
        in_release = panel.release == rel
        present = np.bincount(panel.economist[in_release], minlength=len(panel.economist_ids)) > 0
        share = study.participation[rel]
        rows.append(["total_predictions", RELEASE_LABEL[rel], int(np.count_nonzero(in_release))])
        rows.append(["n_economists", RELEASE_LABEL[rel], int(np.count_nonzero(present))])
        for thr in thresholds:
            count = int(np.count_nonzero(present & passes_threshold(share, thr)))
            rows.append([f"n_economists_ge_{int(round(thr * 100))}pct", RELEASE_LABEL[rel], count])
    cov = joint_coverage(panel)
    for releases, count in zip(("1_2", "1_3", "2_3", "1_2_3"), astuple(cov)):
        rows.append([f"joint_cells_releases_{releases}", "", count])
    return [write_csv(out / "table2_participation.csv", ["metric", "release", "value"], rows,
                      comment="table 2: participation and joint-coverage counts "
                              "(joint counts are economist-quarter cells)")]


def cmd_judgment(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    baseline_rows, judgment_rows, table3_rows, hist_rows, hit_rows = [], [], [], [], []
    for rel in RELEASES:
        base = study.baseline(rel)
        for q, value in base.items():
            baseline_rows.append([RELEASE_LABEL[rel], str(q), value])
        jp, participation = study.judgments[rel], study.participation[rel]
        order = np.lexsort((jp.panel.quarter, jp.panel.economist))
        for econ, q, value, neutral in zip(
            jp.panel.economist[order].tolist(), _quarter_labels(jp.panel.quarter[order]),
            jp.value[order].tolist(), jp.neutral[order].tolist(),
        ):
            judgment_rows.append([jp.panel.economist_ids[econ], q, RELEASE_LABEL[rel], value, neutral])
        shares = sign_shares(jp, participation, cfg.thresholds)
        for thr in cfg.thresholds:
            s = shares[thr]
            table3_rows.append(
                [RELEASE_LABEL[rel], thr, s.n_economists, s.mean_negative, s.sd_negative,
                 s.mean_positive, s.sd_positive, s.mean_neutral, s.sd_neutral]
            )
            hist = negative_share_histogram(jp, participation, thr)
            for label, count in hist.items():
                hist_rows.append([RELEASE_LABEL[rel], thr, label, count])
        try:
            hits = baseline_hit_stats(base, study.actuals[rel], grid=cfg.grid)
            hit_rows.append([RELEASE_LABEL[rel], hits.correct, hits.overprediction, hits.underprediction])
        except ValueError:
            hit_rows.append([RELEASE_LABEL[rel], None, None, None])
    return [
        write_csv(out / f"baseline_{cfg.baseline_method}.csv", ["release", "quarter", "value"], baseline_rows),
        write_csv(out / "judgments.csv", ["economist_id", "quarter", "release", "judgment", "neutral"],
                  judgment_rows),
        write_csv(out / "table3_sign_shares.csv",
                  ["release", "threshold", "n_economists", "mean_negative", "sd_negative",
                   "mean_positive", "sd_positive", "mean_neutral", "sd_neutral"], table3_rows,
                  comment="table 3: cross-economist sign shares of judgments by participation threshold"),
        write_csv(out / "fig3_negative_histogram.csv", ["release", "threshold", "bin", "count"], hist_rows,
                  comment="negative-judgment share histogram (non-neutral judgments only)"),
        write_csv(out / "baseline_hits.csv", ["release", "correct", "overprediction", "underprediction"],
                  hit_rows, comment="baseline vs actual on the reporting grid"),
    ]


def cmd_efficiency(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    hac_lag = None if cfg.hac_lag == "auto" else int(cfg.hac_lag)
    baselines = {(rel, method): study.baseline(rel, method) for rel in RELEASES for method in BASELINE_METHODS}
    report = test_battery_aggregate(baselines, study.actuals, study.spf, study.ar_forecasts, hac_lag=hac_lag)
    table4_rows = []
    for (rel, method), cell in sorted(report.items()):
        table4_rows.append(
            [RELEASE_LABEL[rel], method, cell.unbiasedness_p, cell.efficiency_p, cell.rmse,
             "; ".join(cell.errors)]
        )
    battery = test_battery_individual(
        study.panel, study.actuals, study.spf, study.ar_forecasts, study.participation,
        thresholds=cfg.thresholds, alpha=cfg.alpha,
    )
    table5_rows = [
        [RELEASE_LABEL[row.release], row.threshold, row.n_qualifying,
         row.share_unbiased, row.share_efficient,
         row.n_tested_unbiased, row.n_tested_efficient,
         row.n_excluded_unbiased, row.n_excluded_efficient]
        for row in battery.shares
    ]
    detail_rows = [
        [d.economist_id, RELEASE_LABEL[d.release], d.nobs, d.alpha_hat, d.beta_hat,
         d.p_unbiased, d.p_efficient, d.note]
        for d in battery.details
    ]
    return [
        write_csv(out / "table4_aggregate_tests.csv",
                  ["release", "method", "unbiasedness_p", "efficiency_p", "rmse", "errors"], table4_rows,
                  comment="table 4: baseline unbiasedness/efficiency p-values (HAC) and RMSE"),
        write_csv(out / "table5_individual_tests.csv",
                  ["release", "threshold", "n_qualifying", "share_unbiased", "share_efficient",
                   "n_tested_unbiased", "n_tested_efficient",
                   "n_excluded_unbiased", "n_excluded_efficient"], table5_rows,
                  comment=f"table 5: share of forecasters not rejected at the {cfg.alpha:g} level"),
        write_csv(out / "individual_detail.csv",
                  ["economist_id", "release", "n_obs", "alpha_hat", "beta_hat",
                   "p_unbiased", "p_efficient", "note"], detail_rows),
    ]


def cmd_accuracy(study: Study, out: Path) -> list[Path]:
    thresholds = study.cfg.thresholds
    comp_rows, beat_rows = [], []
    for rel in RELEASES:
        comparisons = study.comparisons[rel]
        for c in comparisons:
            comp_rows.append(
                [c.economist_id, RELEASE_LABEL[rel], c.n_common, c.rmse_self, c.rmse_baseline,
                 c.dm_statistic, c.hln_statistic, c.p_value_hln, c.note]
            )
        shares = beat_baseline_share(comparisons, study.panel, study.participation[rel], thresholds)
        for thr in thresholds:
            beat_rows.append([RELEASE_LABEL[rel], thr, shares[thr]])
    return [
        write_csv(out / "accuracy_comparisons.csv",
                  ["economist_id", "release", "n_common", "rmse_self", "rmse_baseline",
                   "dm_statistic", "hln_statistic", "p_value_hln", "note"], comp_rows,
                  comment="per-forecaster accuracy vs baseline over common quarters"),
        write_csv(out / "beat_shares.csv", ["release", "threshold", "share_beating_baseline"], beat_rows),
    ]


def cmd_persistence(study: Study, out: Path) -> list[Path]:
    report = persistence_battery(study.judgments)
    files = []
    column_order = [(kind, spec) for kind in REGRESSOR_KINDS for spec in SPECS]
    diag_rows = []
    for rel in RELEASES:
        rows = []
        cells = {(c.regressor_kind, c.spec): c for c in report.for_release(rel)}
        for i, (kind, spec) in enumerate(column_order, start=1):
            cell = cells[(kind, spec)]
            if cell.result is None:
                rows.append([i, kind, spec, None, None, "", None, None, None, None, None, cell.error])
            else:
                r = cell.result
                rows.append([i, kind, spec, r.beta, r.se_clustered, cell.stars, cell.p_value,
                             r.n_obs, r.n_forecasters, r.r_squared, r.r_squared_overall, ""])
            if cell.result is not None and cell.result.singletons_dropped:
                diag_rows.append([RELEASE_LABEL[rel], kind, spec,
                                  "singletons_dropped", cell.result.singletons_dropped])
        for kind in REGRESSOR_KINDS:
            diag_rows.append([RELEASE_LABEL[rel], kind, "", "broken_lag_chains",
                              report.broken_chains[(rel, kind)]])
        files.append(write_csv(
            out / f"table{5 + rel.value}_persistence_{RELEASE_LABEL[rel]}.csv",
            ["column", "regressor", "spec", "beta", "se_clustered", "stars", "p_value",
             "n_obs", "n_forecasters", "r_squared_within", "r_squared_overall", "error"], rows,
            comment=f"table {5 + rel.value}: judgment persistence, {RELEASE_LABEL[rel]} release "
                    "(clustered on forecasters; stars at 10/5/1%)"))
    return [*files, write_csv(out / "persistence_diagnostics.csv",
                              ["release", "regressor", "spec", "metric", "value"], diag_rows)]


def cmd_ar_forecast(study: Study, out: Path) -> list[Path]:
    rows = []
    for rel in RELEASES:
        forecasts = study.ar_forecasts[rel]
        p_used = forecasts.p_used[forecasts.quarters() - forecasts.start].tolist()
        for (q, value), p in zip(forecasts.items(), p_used):
            rows.append([str(q), RELEASE_LABEL[rel], value, p])
    return [write_csv(out / "ar_forecasts.csv", ["quarter", "release", "forecast", "p_used"], rows)]


def cmd_simulate(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    world = simulate_world(cfg.synth_config(), seed=cfg.seed)
    actual_rows = [[str(q), rel.value, value] for rel in RELEASES for q, value in world.actuals[rel].items()]
    files = [write_csv(out / "actuals.csv", ["quarter", "release", "value"], actual_rows)]
    panel = world.panel
    forecast_rows = [
        [q, rel, panel.economist_ids[econ], panel.firm_ids[firm], value, ""]
        for q, rel, econ, firm, value in zip(
            _quarter_labels(panel.quarter), panel.release.tolist(), panel.economist.tolist(),
            panel.firm.tolist(), panel.value.tolist(),
        )
    ]
    files.append(write_csv(out / "forecasts.csv", FORECASTS_HEADER, forecast_rows))
    spf_rows = [[str(q), median, mean]
                for (q, median), (_, mean) in zip(world.spf.median.items(), world.spf.mean.items())]
    files.append(write_csv(out / "spf.csv", ["quarter", "median", "mean"], spf_rows))
    truth_rows = []
    t = world.truth
    for k in range(3):
        for i_q, q in enumerate(t.quarters):
            truth_rows.append(["baseline", "", str(q), k + 1, t.baselines[k, i_q]])
    for i, econ in enumerate(t.economists):
        truth_rows.append(["rho_own", econ, "", "", t.rho_i[i]])
        for i_q, q in enumerate(t.quarters):
            for k in range(3):
                truth_rows.append(["judgment", econ, str(q), k + 1, t.judgments[i, i_q, k]])
    files.append(write_csv(out / "truth.csv", ["kind", "economist_id", "quarter", "release", "value"],
                           truth_rows))
    return files


def cmd_recovery(study: Study, out: Path) -> list[Path]:
    cfg = study.cfg
    summary = recovery_experiment(cfg.synth_config(), cfg.replications, base_seed=cfg.seed)
    rows = [[cfg.replications, summary.n_completed, summary.n_failed,
             summary.mean_beta, summary.sd_beta, summary.ci_coverage, cfg.rho_own]]
    return [write_csv(out / "recovery_summary.csv", ["replications", "n_completed", "n_failed", "mean_beta",
                                                     "sd_beta", "ci_coverage_95", "rho_own_true"], rows)]


def cmd_report(study: Study, out: Path) -> list[Path]:
    # Read every input before the first stage, so a bad file ends the run
    # with one error instead of a diagnostics row from each stage.
    study.panel, study.actuals, study.spf
    files = []
    diagnostics = []
    # Looked up at call time, so a tracer that rebinds the module's cmd_*
    # attributes times each stage.
    for name, fn in [
        ("describe", cmd_describe),
        ("table2", cmd_table2),
        ("judgment", cmd_judgment),
        ("efficiency", cmd_efficiency),
        ("accuracy", cmd_accuracy),
        ("persistence", cmd_persistence),
    ]:
        try:
            files.extend(fn(study, out))
        except (JudgebenchError, ValueError) as exc:
            diagnostics.append([name, str(exc)])
    if diagnostics:
        files.append(write_csv(out / "diagnostics.csv", ["stage", "error"], diagnostics))
    cfg = study.cfg
    manifest = {
        "artifact": "judgebench",
        "version": __version__,
        "config": cfg.semantic_dict(),
        "config_hash": cfg.config_hash(),
        "inputs": {
            name: hashlib.sha256(Path(getattr(cfg, name)).read_bytes()).hexdigest()
            for name in ("actuals", "forecasts", "spf")
        },
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
    parser.add_argument("--actuals")
    parser.add_argument("--forecasts")
    parser.add_argument("--spf")
    parser.add_argument("--from", dest="sample_from")
    parser.add_argument("--to", dest="sample_to")
    parser.add_argument("--baseline", dest="baseline_method", choices=["median", "mean"])
    parser.add_argument("--grid", type=float)
    parser.add_argument("--thresholds")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--hac-lag", dest="hac_lag")
    parser.add_argument("--ar-lag", dest="ar_lag")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--replications", type=int)
    parser.add_argument("--n-forecasters", dest="n_forecasters", type=int)
    parser.add_argument("--n-quarters", dest="n_quarters", type=int)
    parser.add_argument("--rho-own", dest="rho_own", type=float)
    parser.add_argument("--rho-own-sd", dest="rho_own_sd", type=float)
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--judgment-sd", dest="judgment_sd", type=float)
    parser.add_argument("--p-neutral", dest="p_neutral", type=float)
    parser.add_argument("--participation-low", dest="participation_low", type=float)
    parser.add_argument("--participation-high", dest="participation_high", type=float)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise CliError(f"error: unknown-config-keys keys={','.join(sorted(unknown))}")
        if "thresholds" in file_values:
            file_values["thresholds"] = tuple(file_values["thresholds"])
        cfg = replace(cfg, **file_values)
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if "thresholds" in overrides and isinstance(overrides["thresholds"], str):
        overrides["thresholds"] = tuple(float(t) for t in overrides["thresholds"].split(","))
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        files = COMMANDS[args.command](Study(cfg), out)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except JudgebenchError as exc:
        print(f"error: {type(exc).__name__.lower()} detail={exc}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
