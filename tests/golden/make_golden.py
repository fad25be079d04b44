"""Regenerate the golden files that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Simulates a 12 x 48 world (participation 0.8-1.0, a fifth of the judgments
neutral), appends hand-written rows that exercise the cleaning rules and a
forecast quarter with no published actual, and writes ``inputs/`` and one
full report directory per entry of ``REPORTS`` next to this file: ``report/``
with the defaults, ``report_mean/`` with a ``--from/--to`` sample, the mean
baseline and thresholds that split the economists, and ``report_gaps/`` on
``inputs_gaps/``, the same inputs less the actuals and SPF rows in
``GAP_ROWS``.  Reports are run from this directory with relative input paths,
because the manifest records them.  Each entry of ``PINS`` keeps the one file
of a further run that no report holds: the simulated world's ``truth.csv`` and
the AR forecasts of both actuals files.

Only regenerate when a change alters the report on purpose, and say so.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

from judgebench.cli import main

HERE = Path(__file__).resolve().parent
SIMULATE = [
    "simulate", "--seed", "7", "--n-forecasters", "12", "--n-quarters", "48",
    "--rho-own", "0.2", "--participation-low", "0.8", "--participation-high", "1.0",
    "--p-neutral", "0.2",
]
# Each key below already has one undated row in the simulated file.
HAND_ROWS = [
    # dated duplicates: the latest report date wins over both other rows
    "2005Q2,1,E0001,F0001,9.9,2005-07-01",
    "2005Q2,1,E0001,F0001,2.5,2005-07-15",
    # undated duplicate: the row closer to the quarter median wins
    "2006Q3,2,E0002,F0002,7.5,",
    # firm-only row: dropped as unattributed
    "2007Q1,1,,F0003,1.5,",
    # 2012Q1 has forecasts but no actual in any release
    "2012Q1,1,E0001,F0001,0.9,",
    "2012Q1,1,E0002,F0002,1.1,",
    "2012Q1,1,E0003,F0003,1.0,",
]
# Rows left out of ``inputs_gaps/``, each named by the start of its line.
GAP_ROWS = {
    "actuals.csv": [
        "2005Q3,2,", "2005Q4,2,",  # an interior two-quarter run of the second release
        "2000Q1,3,",               # the first third-release actual
    ],
    "spf.csv": [
        "2007Q2,", "2007Q3,",      # an interior two-quarter run
        "2011Q4,",                 # the last quarter
    ],
}
# Report directory name -> its input directory and the flags of its run beyond the inputs.
REPORTS = {
    "report": ("inputs", []),
    "report_mean": ("inputs", ["--from", "2002Q1", "--to", "2010Q4", "--baseline", "mean",
                               "--thresholds", "0.1,0.85,0.95"]),
    "report_gaps": ("inputs_gaps", []),
}

# Pin directory name -> the run, from this directory, and the one file of its output kept there.
PINS = {
    "simulate": (SIMULATE, "truth.csv"),
    "ar_forecast": (["ar-forecast", "--actuals", "inputs/actuals.csv"], "ar_forecasts.csv"),
    "ar_forecast_gaps": (["ar-forecast", "--actuals", "inputs_gaps/actuals.csv", "--ar-lag", "auto"],
                         "ar_forecasts.csv"),
}


def report_args(name: str, out: str) -> list[str]:
    inputs, flags = REPORTS[name]
    files = [arg for kind in ("actuals", "forecasts", "spf") for arg in (f"--{kind}", f"{inputs}/{kind}.csv")]
    return ["report", *files, *flags, "--out", out]


def make_inputs(inputs: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if main([*SIMULATE, "--out", tmp]) != 0:
            raise SystemExit("simulate failed")
        inputs.mkdir(parents=True, exist_ok=True)
        for name in ("actuals.csv", "spf.csv", "forecasts.csv"):
            shutil.copyfile(Path(tmp) / name, inputs / name)
    with open(inputs / "forecasts.csv", "a", encoding="utf-8", newline="") as fh:
        fh.writelines(row + "\n" for row in HAND_ROWS)


def make_gap_inputs(inputs: Path, gaps: Path) -> None:
    gaps.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(inputs / "forecasts.csv", gaps / "forecasts.csv")
    for name, starts in GAP_ROWS.items():
        lines = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(tuple(starts))]
        if len(kept) != len(lines) - len(starts):
            raise SystemExit(f"{name}: each of {starts} must start exactly one line")
        (gaps / name).write_text("".join(kept), encoding="utf-8")


def make_pin(name: str) -> None:
    args, kept = PINS[name]
    with tempfile.TemporaryDirectory() as tmp:
        if main([*args, "--out", tmp]) != 0:
            raise SystemExit(f"{name} failed")
        shutil.rmtree(HERE / name, ignore_errors=True)
        (HERE / name).mkdir()
        shutil.copyfile(Path(tmp) / kept, HERE / name / kept)


def run() -> int:
    os.chdir(HERE)
    for inputs in ("inputs", "inputs_gaps"):
        shutil.rmtree(HERE / inputs, ignore_errors=True)
    make_inputs(HERE / "inputs")
    make_gap_inputs(HERE / "inputs", HERE / "inputs_gaps")
    for name in REPORTS:
        shutil.rmtree(HERE / name, ignore_errors=True)
        code = main(report_args(name, name))
        if code != 0:
            return code
    for name in PINS:
        make_pin(name)
    return 0


if __name__ == "__main__":
    sys.exit(run())
