"""Regenerate the golden report that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Simulates a 12 x 48 world (participation 0.8-1.0, a fifth of the judgments
neutral), appends hand-written rows that exercise the cleaning rules and a
forecast quarter with no published actual, and writes ``inputs/`` and the full
``report/`` directory next to this file.  The report is run from this
directory with relative input paths, because the manifest records them.

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
REPORT = [
    "report", "--actuals", "inputs/actuals.csv", "--forecasts", "inputs/forecasts.csv",
    "--spf", "inputs/spf.csv", "--out", "report",
]


def make_inputs(inputs: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if main([*SIMULATE, "--out", tmp]) != 0:
            raise SystemExit("simulate failed")
        inputs.mkdir(parents=True, exist_ok=True)
        for name in ("actuals.csv", "spf.csv", "forecasts.csv"):
            shutil.copyfile(Path(tmp) / name, inputs / name)
    with open(inputs / "forecasts.csv", "a", encoding="utf-8", newline="") as fh:
        fh.writelines(row + "\n" for row in HAND_ROWS)


def run() -> int:
    os.chdir(HERE)
    shutil.rmtree(HERE / "inputs", ignore_errors=True)
    shutil.rmtree(HERE / "report", ignore_errors=True)
    make_inputs(HERE / "inputs")
    return main(REPORT)


if __name__ == "__main__":
    sys.exit(run())
