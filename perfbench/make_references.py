"""Write the reference outputs the benchmark checks every run against.

    python3 perfbench/make_references.py

Run from the root of a checkout whose program is the accepted reference.  For
each of the ``WORLDS`` worlds of every workload it generates the inputs, runs the
CLI once and stores the input digests and the checked output files in
``references/<workload>.json``.  A world whose run fails a stage or a
replication is an error: the benchmark's workloads must run clean.  Run it
again only when a change alters the report on purpose, and say so.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import run as bench
from checks import RECOVERY_FILE, STAGE_FILES


def reference_for(name: str, world: int, root: Path) -> dict:
    workload = bench.WORKLOADS[name]
    work = root / ".perfbench" / "references" / f"{name}-{world}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench.make_inputs(workload, world, work)
    cmd = [sys.executable, "-m", "judgebench.cli"] + bench.cli_args(workload, world, "out")
    run = bench.run_child(cmd, work, bench.child_env(root), perf_counter() + 600,
                         work / "out.log")
    out = work / "out"
    if run.returncode != 0 or (out / "diagnostics.csv").exists():
        raise SystemExit(f"error: {name} world {world} did not run clean; see {work}")
    if workload.world is not None:
        names = sorted(n for files in STAGE_FILES.values() for n in files)
    else:
        names = [RECOVERY_FILE]
        row = dict(zip(*csv.reader((out / RECOVERY_FILE).read_text().splitlines())))
        if row["n_failed"] != "0":
            raise SystemExit(f"error: {name} world {world} has failed replications")
    print(f"{name} world {world}: {run.wall_s:.1f} s", file=sys.stderr)
    return {
        "inputs": bench.input_digests(work),
        "outputs": {n: (out / n).read_text(encoding="utf-8") for n in names},
    }


def main() -> int:
    root = Path.cwd()
    for name in sorted(bench.WORKLOADS):
        refs = {str(w): reference_for(name, w, root) for w in range(bench.WORLDS)}
        path = bench.BENCH_DIR / "references" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
