"""judgebench benchmark: seeded inputs, the real CLI in a fresh process, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
With ``--trace 0`` the CLI runs back to back until ``--seconds`` have passed
(at least once) and the end-to-end metrics are medians over those runs.  With
``--trace 1`` it runs once plainly and once under ``trace_cli.py``, and the
per-layer metrics come from the traced run.  The last line of standard output
is one JSON object; the full record, with environment and input facts, goes
to ``.perfbench/<workload>-<seed>/result-trace<T>.json``.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
from trace_cli import COUNTED, METRICS  # noqa: E402

# Each seed maps to one of this many worlds, whose reference outputs are
# committed under references/ (make_references.py writes them).
WORLDS = 16
SETUP_REPEATS = 3
RUN_DEADLINE_S = 165.0  # every child is killed once the run has lasted this long
REPORT_STAGES = list(checks.STAGE_FILES)
RECOVERY_SIZE = (200, 80)  # economists × quarters of each replication


@dataclass(frozen=True)
class Workload:
    world: gen.WorldSpec | None = None  # report workloads
    replications: int = 0               # the recovery workload


# Sized so that one CLI run takes 5-8 s on a 2-core Intel Xeon container, and
# a 20 s run of the benchmark takes the median of about three: single CLI runs there
# vary by about ±10 %, and a median of three is not moved by one slow run.
WORKLOADS = {
    "report-wide": Workload(world=gen.WorldSpec(100, 92, 2000, (0.3, 1.0))),
    "report-long-dirty": Workload(world=gen.WorldSpec(
        30, 160, 1960, (0.5, 1.0), rho_own=0.3, kappa=0.3, p_neutral=0.2, dirty=True)),
    "recovery": Workload(replications=12),
}


def cli_args(workload: Workload, world: int, out: str) -> list[str]:
    if workload.world is not None:
        return ["report", "--actuals", "inputs/actuals.csv", "--forecasts", "inputs/forecasts.csv",
                "--spf", "inputs/spf.csv", "--out", out]
    n, t = RECOVERY_SIZE
    return ["recovery", "--seed", str(1000 * (world + 1)), "--n-forecasters", str(n),
            "--n-quarters", str(t), "--rho-own", "0.1", "--rho-own-sd", "0.2",
            "--replications", str(workload.replications), "--out", out]


def make_inputs(workload: Workload, world: int, work: Path) -> dict:
    """Write the workload's inputs under work/inputs; return the input facts."""
    if workload.world is None:
        n, t = RECOVERY_SIZE
        return {"economists": n, "quarters": t, "replications": workload.replications,
                "rows_per_replication": n * t * 3}
    return gen.write_world(workload.world, world, work / "inputs")


def input_digests(work: Path) -> dict[str, str]:
    inputs = work / "inputs"
    if not inputs.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(inputs.iterdir())}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("JUDGEBENCH_THREADS", None)  # the default: one thread
    return env


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_child(cmd: list[str], cwd: Path, env: dict, deadline: float, log: Path) -> ChildRun:
    """Run one process to completion; peak RSS is this child's alone (wait4)."""
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def measure_setup(root: Path, env: dict, deadline: float, log: Path) -> float:
    """Median wall time for a fresh interpreter to import judgebench.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        run = run_child([sys.executable, "-c", "import judgebench.cli"], root, env, deadline, log)
        if run.returncode != 0:
            raise SystemExit(f"error: importing judgebench.cli failed; see {log}")
        times.append(run.wall_s)
    return statistics.median(times)


def run_cli(workload: Workload, world: int, work: Path, out: str, env: dict, deadline: float,
            reference: dict, trace_json: Path | None = None) -> tuple[ChildRun, int, int, list[str]]:
    """One CLI run and its output checks: (run, attempted, failed, failure reasons)."""
    shutil.rmtree(work / out, ignore_errors=True)
    cmd = [sys.executable]
    cmd += [str(BENCH_DIR / "trace_cli.py"), str(trace_json)] if trace_json else ["-m", "judgebench.cli"]
    run = run_child(cmd + cli_args(workload, world, out), work, env, deadline, work / f"{out}.log")
    if workload.world is not None:
        failures = checks.check_report(work / out, reference)
        reasons = [f"{stage}: {why}" for stage, why in sorted(failures.items())]
        attempted, failed = len(REPORT_STAGES), len(failures)
    else:
        failed, why = checks.check_recovery(work / out, reference, workload.replications)
        reasons = [why] if why else []
        attempted = workload.replications
    if run.returncode != 0:
        reasons.append(f"exit code {run.returncode}; see {out}.log")
        failed = attempted
    return run, attempted, failed, reasons


def environment(root: Path) -> dict:
    commit = None  # unknown outside a git checkout
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def per_layer(trace: dict) -> dict[str, tuple[float, str]]:
    """The traced run's layer metrics: self time and calls per layer, then work counts."""
    self_s, calls, work = trace["self_s"], trace["calls"], trace["work"]
    metrics: dict[str, tuple[float, str]] = {}
    for metric in METRICS:
        if metric == "cli.write":
            metrics["cli.write_s"] = (self_s.get(metric, 0.0), "s")
            metrics["cli.files_written"] = (calls.get(metric, 0), "count")
            continue
        metrics[f"{metric}_s"] = (self_s.get(metric, 0.0), "s")
        metrics[f"{metric}_calls"] = (calls.get(metric, 0), "count")
    for metric, _, _ in COUNTED:
        metrics[f"{metric}_calls"] = (calls.get(metric, 0), "count")
    for name in ("panel.rows_read", "panel.rows_dropped", "judgment.entries", "syngen.records",
                 "cli.bytes_written"):
        metrics[name] = (work.get(name, 0), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "judgebench" / "cli.py").is_file():
        print(f"error: no judgebench source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    world = args.seed % WORLDS
    reference = json.loads((BENCH_DIR / "references" / f"{args.workload}.json").read_text())[str(world)]

    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = make_inputs(workload, world, work)
    if input_digests(work) != reference["inputs"]:
        print("error: generated inputs differ from the ones the references were made from",
              file=sys.stderr)
        return 3
    env = child_env(root)
    # Byte-compile once, as an installed package would be; no run should pay for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], env=env, check=True,
                   stdout=subprocess.DEVNULL)

    record = {"workload": args.workload, "seed": args.seed, "world": world, "trace": args.trace,
              "environment": environment(root), "inputs": facts}
    outputs = reference["outputs"]
    attempted = failed = 0
    reasons: list[str] = []
    if args.trace:
        plain, a1, f1, r1 = run_cli(workload, world, work, "out", env, deadline, outputs)
        traced, a2, f2, r2 = run_cli(workload, world, work, "out-traced", env, deadline, outputs,
                                     trace_json=work / "trace.json")
        attempted, failed, reasons = a1 + a2, f1 + f2, r1 + r2
        if not checks.identical_dirs(work / "out", work / "out-traced"):
            reasons.append("traced outputs differ from untraced outputs")
            failed = min(failed + 1, attempted)
        try:
            trace = json.loads((work / "trace.json").read_text())
        except FileNotFoundError:  # the traced child died before writing it
            trace = {"self_s": {}, "calls": {}, "work": {}, "missing": [], "overhead_s": 0.0}
            reasons.append("traced run wrote no trace")
        metrics = per_layer(trace)
        metrics["trace.overhead_s"] = (trace["overhead_s"], "s")
        metrics["error_share"] = (failed / attempted, "share")
        record.update(trace=trace, wall_s={"plain": plain.wall_s, "traced": traced.wall_s})
    else:
        setup_s = measure_setup(root, env, deadline, work / "setup.log")
        runs = []
        measure_start = perf_counter()
        while True:
            run, a, f, r = run_cli(workload, world, work, "out", env, deadline, outputs)
            runs.append(run)
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
            now = perf_counter()
            if now - measure_start >= args.seconds or now + 1.5 * run.wall_s > deadline:
                break
        wall_s = statistics.median(r.wall_s for r in runs)
        rows = facts["rows"] if workload.world else workload.replications * facts["rows_per_replication"]
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "rows_per_s": (rows / wall_s, "1/s"),
        }
        record["runs"] = [vars(r) for r in runs]
        if not workload.world:
            record["replications_per_s"] = workload.replications / wall_s
    record.update(attempted=attempted, failed=failed, failures=reasons,
                  metrics={k: v for k, (v, _) in metrics.items()})
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    result = {
        "correct": not reasons and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if result["correct"]:  # keep the bulky files only when there is a failure to look into
        for name in ("inputs", "out", "out-traced"):
            shutil.rmtree(work / name, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
