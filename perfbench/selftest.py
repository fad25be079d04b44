"""Self-tests of the benchmark itself (not of judgebench).

    python3 perfbench/selftest.py

Run from the root of a checkout.  They check that the input generator is
byte-deterministic and matches the committed references, that the trace's
cleaning counts equal what the generator injected, that tracing leaves the
report byte-identical, and that a failing report stage is counted, not fatal.
Scratch files go under .perfbench/selftest/.
"""
from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path
from time import perf_counter

import checks
import gen
import run as bench

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench" / "selftest"
# A small dirty world: every cleaning rule fires, and a report takes seconds.
SMALL = bench.Workload(world=gen.WorldSpec(12, 40, 2000, (0.6, 1.0), rho_own=0.3, kappa=0.3,
                                           p_neutral=0.2, dirty=True))


def fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def deadline() -> float:
    return perf_counter() + 120


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_and_matches_references(self):
        for name in ("report-wide", "report-long-dirty"):
            workload = bench.WORKLOADS[name]
            refs = json.loads((bench.BENCH_DIR / "references" / f"{name}.json").read_text())
            for world in (0, 5):
                a, b = fresh(f"gen-{name}-a"), fresh(f"gen-{name}-b")
                self.assertEqual(bench.make_inputs(workload, world, a), bench.make_inputs(workload, world, b))
                self.assertEqual(bench.input_digests(a), bench.input_digests(b))
                self.assertEqual(bench.input_digests(a), refs[str(world)]["inputs"])

    def test_different_seeds_differ(self):
        workload = bench.WORKLOADS["report-wide"]
        a, b = fresh("gen-a"), fresh("gen-b")
        bench.make_inputs(workload, 1, a)
        bench.make_inputs(workload, 2, b)
        self.assertNotEqual(bench.input_digests(a), bench.input_digests(b))


class TraceTest(unittest.TestCase):
    def test_trace_drops_equal_injected_counts(self):
        workload = bench.WORKLOADS["report-long-dirty"]
        work = fresh("drops")
        facts = bench.make_inputs(workload, 3, work)
        cmd = [sys.executable, str(bench.BENCH_DIR / "trace_cli.py"), str(work / "trace.json")]
        cmd += ["describe"] + bench.cli_args(workload, 3, "out")[1:]
        run = bench.run_child(cmd, work, bench.child_env(ROOT), deadline(), work / "out.log")
        self.assertEqual(run.returncode, 0)
        traced = json.loads((work / "trace.json").read_text())["work"]
        self.assertEqual(traced["panel.rows_read"], facts["rows"])
        self.assertEqual(traced["panel.rows_dropped"], facts["expected_dropped"])
        self.assertEqual(traced["panel.dropped.dropped-duplicate"],
                         facts["dated_duplicates"] + facts["undated_pairs"])
        self.assertEqual(traced["panel.dropped.dropped-unattributed"], facts["firm_only"])

    def test_traced_report_is_byte_identical(self):
        work = fresh("identical")
        bench.make_inputs(SMALL, 0, work)
        env = bench.child_env(ROOT)
        plain = bench.run_child([sys.executable, "-m", "judgebench.cli"] + bench.cli_args(SMALL, 0, "out"),
                                work, env, deadline(), work / "out.log")
        traced = bench.run_child(
            [sys.executable, str(bench.BENCH_DIR / "trace_cli.py"), str(work / "trace.json")]
            + bench.cli_args(SMALL, 0, "out-traced"), work, env, deadline(), work / "out-traced.log")
        self.assertEqual((plain.returncode, traced.returncode), (0, 0))
        self.assertTrue(checks.identical_dirs(work / "out", work / "out-traced"))
        calls = json.loads((work / "trace.json").read_text())["calls"]
        for stage in bench.REPORT_STAGES:
            self.assertEqual(calls[f"cli.stage.{stage}"], 1)


class FailureAccountingTest(unittest.TestCase):
    def test_failed_stage_counts_and_does_not_crash(self):
        work = fresh("failure")
        bench.make_inputs(SMALL, 0, work)
        env = bench.child_env(ROOT)
        bench.run_child([sys.executable, "-m", "judgebench.cli"] + bench.cli_args(SMALL, 0, "ref"),
                        work, env, deadline(), work / "ref.log")
        names = [n for files in checks.STAGE_FILES.values() for n in files]
        reference = {n: (work / "ref" / n).read_text() for n in names}
        _, attempted, failed, reasons = bench.run_cli(SMALL, 0, work, "out", env, deadline(), reference)
        self.assertEqual((attempted, failed, reasons), (6, 0, []))

        # A bad SPF header makes the efficiency stage fail; report still exits 0.
        spf = work / "inputs" / "spf.csv"
        spf.write_text(spf.read_text().replace("quarter,median,mean", "quarter,median,avg", 1))
        run, attempted, failed, reasons = bench.run_cli(SMALL, 0, work, "out", env, deadline(), reference)
        self.assertEqual((run.returncode, attempted, failed), (0, 6, 1))
        self.assertTrue(reasons[0].startswith("efficiency: stage error"), reasons)

    def test_table_tolerance(self):
        want = "a,b\nx,0.123456789012\n"
        self.assertTrue(checks.same_table("a,b\nx,0.123456789013\n", want))
        self.assertFalse(checks.same_table("a,b\nx,0.1234568\n", want))
        self.assertFalse(checks.same_table("a,b\ny,0.123456789012\n", want))


if __name__ == "__main__":
    unittest.main()
