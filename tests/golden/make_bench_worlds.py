"""Regenerate ``bench_worlds.sha256``, the digests of the benchmark worlds' reports.

    PYTHONPATH=src python3 tests/golden/make_bench_worlds.py [OUT]

Writes the worlds of the ``report-wide`` and ``report-long-dirty`` benchmark
workloads, numbers 0 to ``WORLDS - 1``, with ``perfbench/gen.py``, runs
``report`` on each at every AR lag in ``LAGS``, and writes one SHA-256 line
per file in ``sha256sum`` form: first each world's three inputs, then each
report file but ``manifest.json``, which records the version and the input
paths.  An input line that moves means the generator or numpy's streams
changed, not the report.  ``OUT`` defaults to the committed file; to check
the committed digests, write them elsewhere and compare the two files.

Only regenerate when a change alters a report on purpose, and list each moved
file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from judgebench.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "bench_worlds.sha256"
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

import run as bench  # noqa: E402

WORKLOADS = ("report-wide", "report-long-dirty")
WORLDS = 6
LAGS = ("1", "auto")
INPUTS = ("actuals", "forecasts", "spf")


def _line(path: Path, name: str) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n"


def world_digests(workload: str, world: int, work: Path) -> list[str]:
    """The digest lines of one world, written and reported under the empty directory ``work``."""
    bench.make_inputs(bench.WORKLOADS[workload], world, work)
    inputs, prefix = work / "inputs", f"{workload}/world{world}"
    lines = [_line(inputs / f"{kind}.csv", f"{prefix}/inputs/{kind}.csv") for kind in INPUTS]
    for lag in LAGS:
        out = work / f"ar-lag-{lag}"
        args = [flag for kind in INPUTS for flag in (f"--{kind}", str(inputs / f"{kind}.csv"))]
        with contextlib.redirect_stdout(io.StringIO()):  # the paths that report lists
            code = main(["report", *args, "--ar-lag", lag, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"report failed on {prefix} at --ar-lag {lag}")
        lines += [_line(path, f"{prefix}/ar-lag-{lag}/{path.name}")
                  for path in sorted(out.iterdir()) if path.name != "manifest.json"]
    return lines


def run(out: Path = DIGESTS) -> int:
    lines = []
    for workload in WORKLOADS:
        for world in range(WORLDS):
            with tempfile.TemporaryDirectory() as tmp:
                lines += world_digests(workload, world, Path(tmp))
    out.write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(run(*map(Path, sys.argv[1:2])))
