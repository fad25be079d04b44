"""Output checks: the report's shape and every table against its reference.

A table matches its reference when it is byte-identical or when every cell is
equal as text or, read as numbers, within ``REL_TOL`` relative (``ABS_TOL``
absolute near zero).  The tolerance lets a reordered floating-point sum pass
while any real change in a result fails.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

PERSISTENCE_HEADER = ("column,regressor,spec,beta,se_clustered,stars,p_value,n_obs,n_forecasters,"
                      "r_squared_within,r_squared_overall,error")
# Header of every report table, as the README documents it.
TABLE_HEADERS = {
    "table1_descriptive.csv": "release,avg_n,min_n,max_n,armse,min_rmse,max_rmse,avg_std,min_std,max_std,"
                              "avg_skew,min_skew,max_skew,avg_excess_kurt,min_excess_kurt,max_excess_kurt",
    "table2_participation.csv": "metric,release,value",
    "table3_sign_shares.csv": "release,threshold,n_economists,mean_negative,sd_negative,mean_positive,"
                              "sd_positive,mean_neutral,sd_neutral",
    "table4_aggregate_tests.csv": "release,method,unbiasedness_p,efficiency_p,rmse,errors",
    "table5_individual_tests.csv": "release,threshold,n_qualifying,share_unbiased,share_efficient,"
                                   "n_tested_unbiased,n_tested_efficient,n_excluded_unbiased,"
                                   "n_excluded_efficient",
    "table6_persistence_first.csv": PERSISTENCE_HEADER,
    "table7_persistence_second.csv": PERSISTENCE_HEADER,
    "table8_persistence_third.csv": PERSISTENCE_HEADER,
}
# The files checked against the reference for each report stage.  The
# accuracy stage writes no numbered table, so its two result files stand in:
# the per-forecaster comparisons and the beat-the-baseline shares.
STAGE_FILES = {
    "describe": ["table1_descriptive.csv"],
    "table2": ["table2_participation.csv"],
    "judgment": ["table3_sign_shares.csv"],
    "efficiency": ["table4_aggregate_tests.csv", "table5_individual_tests.csv"],
    "accuracy": ["accuracy_comparisons.csv", "beat_shares.csv"],
    "persistence": ["table6_persistence_first.csv", "table7_persistence_second.csv",
                    "table8_persistence_third.csv"],
}
RECOVERY_FILE = "recovery_summary.csv"


def _cells_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_table(got: str, want: str) -> bool:
    """True when two CSV texts agree cell by cell within the tolerance."""
    if got == want:
        return True
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for got_row, want_row in zip(csv.reader(got_lines), csv.reader(want_lines)):
        if len(got_row) != len(want_row):
            return False
        if not all(_cells_close(g, w) for g, w in zip(got_row, want_row)):
            return False
    return True


def _header(text: str) -> str | None:
    for line in text.splitlines():
        if not line.startswith("#"):
            return line
    return None


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def check_report(out: Path, reference: dict[str, str]) -> dict[str, str]:
    """Check one report directory; return {stage: reason} for every failed stage."""
    failures: dict[str, str] = {}
    diagnostics = _read(out / "diagnostics.csv")
    if diagnostics is not None:
        for row in list(csv.reader(diagnostics.splitlines()))[1:]:
            failures[row[0]] = f"stage error: {row[1] if len(row) > 1 else ''}"
    try:
        outputs = set(json.loads(_read(out / "manifest.json") or "null")["outputs"])
    except (TypeError, KeyError, json.JSONDecodeError):
        return {stage: "manifest.json missing or unreadable" for stage in STAGE_FILES}
    for stage, names in STAGE_FILES.items():
        for name in names:
            text = _read(out / name)
            if text is None or name not in outputs:
                failures.setdefault(stage, f"{name} missing")
            elif name in TABLE_HEADERS and _header(text) != TABLE_HEADERS[name]:
                failures.setdefault(stage, f"{name} header differs from the README")
            elif not same_table(text, reference[name]):
                failures.setdefault(stage, f"{name} differs from the reference")
    return failures


def check_recovery(out: Path, reference: dict[str, str], replications: int) -> tuple[int, str | None]:
    """Return (failed replications, reason the summary is wrong or None)."""
    text = _read(out / RECOVERY_FILE)
    if text is None:
        return replications, f"{RECOVERY_FILE} missing"
    if not same_table(text, reference[RECOVERY_FILE]):
        return replications, f"{RECOVERY_FILE} differs from the reference"
    row = dict(zip(*csv.reader(text.splitlines())))
    return int(row["n_failed"]), None


def identical_dirs(a: Path, b: Path) -> bool:
    """True when two output directories hold the same files with the same bytes."""
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
