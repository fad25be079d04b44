"""Fixed inputs must give the same files, byte for byte.

The inputs and the expected reports live in ``tests/golden/`` and come from
``tests/golden/make_golden.py``.  The world has participation below 1,
neutral judgments, dated and undated duplicate keys, a firm-only row and a
forecast quarter with no published actual.  The second report restricts the
sample with ``--from/--to``, uses the mean baseline and thresholds that only
some economists pass.  The third drops actuals and SPF rows, so some series
have interior gaps and start or end early.  The pins hold the simulated
world's truth and the AR forecasts of both actuals files, which no report
writes.  ``bench_worlds.sha256`` holds the digests of the benchmark worlds'
reports, from ``tests/golden/make_bench_worlds.py``.
"""
import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from judgebench.cli import main

from test_cli import src_env

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import make_bench_worlds  # noqa: E402
import make_golden  # noqa: E402


def _check_report(name: str, tmp_path: Path, monkeypatch) -> None:
    # The manifest records the input paths, so run with the same relative ones.
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert main(make_golden.report_args(name, str(out))) == 0
    expected = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(got) == sorted(expected)
    for file_name in sorted(expected):
        assert got[file_name] == expected[file_name], file_name


def test_report_matches_golden_byte_for_byte(tmp_path, monkeypatch):
    _check_report("report", tmp_path, monkeypatch)


def test_mean_window_report_matches_golden_byte_for_byte(tmp_path, monkeypatch):
    _check_report("report_mean", tmp_path, monkeypatch)


def test_gaps_report_matches_golden_byte_for_byte(tmp_path, monkeypatch):
    _check_report("report_gaps", tmp_path, monkeypatch)


def test_piped_forecasts_are_hashed_from_the_bytes_read(tmp_path):
    args = make_golden.report_args("report", str(tmp_path))
    args[args.index("--forecasts") + 1] = "/dev/stdin"
    forecasts = (GOLDEN / "inputs" / "forecasts.csv").read_bytes()
    done = subprocess.run([sys.executable, "-m", "judgebench.cli", *args], cwd=GOLDEN, env=src_env(),
                          input=forecasts, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == {**json.loads((GOLDEN / "report" / "manifest.json").read_text())["inputs"],
                                  "forecasts": hashlib.sha256(forecasts).hexdigest()}
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "report").iterdir() if p.name != "manifest.json"}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "manifest.json"} == expected


@pytest.mark.parametrize("firm", ["blank", "another id"])
def test_firm_ids_reach_no_report_output(firm, tmp_path, monkeypatch):
    # The firm_id field must be present, but no analysis reads it.
    monkeypatch.chdir(GOLDEN)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in ("actuals.csv", "spf.csv"):
        shutil.copyfile(GOLDEN / "inputs" / name, inputs / name)
    with open(GOLDEN / "inputs" / "forecasts.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    for i, row in enumerate(rows):
        row[header.index("firm_id")] = "" if firm == "blank" else f"G{i}"
    with open(inputs / "forecasts.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    args = make_golden.report_args("report", str(tmp_path / "out"))
    args[args.index("--forecasts") + 1] = str(inputs / "forecasts.csv")
    assert main(args) == 0
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "report").iterdir() if p.name != "manifest.json"}
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"} == expected


def test_simulate_reproduces_golden_inputs(tmp_path):
    out = tmp_path / "world"
    assert main([*make_golden.SIMULATE, "--out", str(out)]) == 0
    inputs = GOLDEN / "inputs"
    for name in ("actuals.csv", "spf.csv"):
        assert (out / name).read_bytes() == (inputs / name).read_bytes(), name
    hand = "".join(row + "\n" for row in make_golden.HAND_ROWS).encode()
    expected = (inputs / "forecasts.csv").read_bytes()
    assert expected.endswith(hand)
    assert (out / "forecasts.csv").read_bytes() == expected[: len(expected) - len(hand)]


@pytest.mark.parametrize("name", sorted(make_golden.PINS))
def test_pinned_output_matches_golden_byte_for_byte(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    args, kept = make_golden.PINS[name]
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / kept).read_bytes() == (GOLDEN / name / kept).read_bytes()


@pytest.mark.parametrize("workload", make_bench_worlds.WORKLOADS)
def test_benchmark_world_reports_keep_their_digests(workload, tmp_path):
    # World 0 of each workload here; the CI runtime job checks every world.
    prefix = f"{workload}/world0/"
    pinned = [line for line in make_bench_worlds.DIGESTS.read_text().splitlines(keepends=True)
              if line.split("  ", 1)[1].startswith(prefix)]
    assert make_bench_worlds.world_digests(workload, 0, tmp_path) == pinned
