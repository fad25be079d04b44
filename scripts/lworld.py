"""Time ``judgebench report`` on the large "L world" in a fresh process.

    python3 scripts/lworld.py [--src PATH]

Simulates the L world (``simulate --seed 7 --n-forecasters 1000 --n-quarters
160 --participation-low 0.3 --participation-high 1.0``, about 318k forecast
rows) into a temporary directory, then runs ``report`` on it in a child
process and prints one JSON line: the report's wall time and its peak RSS,
read with ``os.wait4`` for that child alone.  ``--src`` names the source tree
to run (default: this checkout's ``src/``), so one copy of the script can
measure two checkouts.  This is a measurement beside the benchmark in
``perfbench/``, not one of its workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIMULATE = [
    "simulate", "--seed", "7", "--n-forecasters", "1000", "--n-quarters", "160",
    "--participation-low", "0.3", "--participation-high", "1.0",
]


def run_cli(args: list[str], src: Path) -> tuple[float, float]:
    """Run the CLI in a fresh interpreter; return (wall seconds, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "judgebench.cli", *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"judgebench {args[0]} exited with status {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to run")
    src = parser.parse_args().src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        world, out = Path(tmp) / "world", Path(tmp) / "report"
        run_cli([*SIMULATE, "--out", str(world)], src)
        inputs = ["--actuals", str(world / "actuals.csv"), "--forecasts", str(world / "forecasts.csv"),
                  "--spf", str(world / "spf.csv")]
        wall, rss = run_cli(["report", *inputs, "--out", str(out)], src)
    print(json.dumps({"world": "L", "command": "report", "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)}))


if __name__ == "__main__":
    main()
