import csv
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import judgebench
from judgebench import cli
from judgebench.armodel import DEFAULT_MAX_LAG
from judgebench.cli import RunConfig, build_parser, config_from_args, main
from judgebench.syngen import SynthConfig

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
GOLDEN_FLAGS = [flag for kind in ("actuals", "forecasts", "spf")
                for flag in (f"--{kind}", str(GOLDEN_INPUTS / f"{kind}.csv"))]


def read_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this judgebench."""
    return {**os.environ, "PYTHONPATH": str(Path(judgebench.__file__).resolve().parents[1])}


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory) -> Path:
    """A small simulated world written once for all CLI tests."""
    out = tmp_path_factory.mktemp("world")
    code = main(
        [
            "simulate",
            "--seed", "7",
            "--n-forecasters", "12",
            "--n-quarters", "48",
            "--rho-own", "0.2",
            "--participation-low", "0.8",
            "--participation-high", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def world_flags(world_dir: Path, *skip: str) -> list[str]:
    """The world's input flags, but none for the inputs named in ``skip``."""
    return [flag for name in ("actuals", "forecasts", "spf") if name not in skip
            for flag in (f"--{name}", str(world_dir / f"{name}.csv"))]


class TestSimulate:
    def test_writes_world_files(self, world_dir):
        names = {p.name for p in world_dir.iterdir()}
        assert {"actuals.csv", "forecasts.csv", "spf.csv", "truth.csv"} <= names


class TestMissingInputs:
    def test_missing_forecasts_file_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["describe", "--forecasts", str(missing),
                     "--actuals", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: missing-input")
        assert str(missing) in err

    def test_missing_input_leaves_no_out(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["ar-forecast", "--actuals", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_input_error_leaves_no_out(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "spf.csv"
        bad.write_bytes((world_dir / "spf.csv").read_bytes() + b"2099Q1,\xff1.0,1.0\n")
        flags = world_flags(world_dir, "spf")
        out = tmp_path / "o"
        assert main(["report", *flags, "--spf", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err
        assert not out.exists()

    def test_missing_argument_exits_2(self, tmp_path, capsys):
        code = main(["describe", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing" in capsys.readouterr().err


class TestWarnings:
    def test_stage_warning_is_one_line(self, tmp_path):
        # No economist takes part in every quarter of the golden world.
        done = subprocess.run(
            [sys.executable, "-m", "judgebench.cli", "judgment", "--actuals", str(GOLDEN_INPUTS / "actuals.csv"),
             "--forecasts", str(GOLDEN_INPUTS / "forecasts.csv"), "--thresholds", "1.0", "--out", "o"],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stderr.splitlines() == [f"warning: no economist passes threshold 1.0 for release {k}"
                                            for k in (1, 2, 3)]
        # Each release keeps its table 3 row, with no statistics, and its five histogram bins, all empty.
        table3 = (tmp_path / "o" / "table3_sign_shares.csv").read_text().splitlines()
        assert table3[2:] == [f"{release},1,0,,,,,," for release in ("first", "second", "third")]
        histogram = (tmp_path / "o" / "fig3_negative_histogram.csv").read_text().splitlines()
        assert histogram[2:] == [f"{release},1,{label},0" for release in ("first", "second", "third")
                                 for label in ("<=20%", "20-40%", "40-60%", "60-80%", ">80%")]

    def test_describe_shows_each_quarter_it_excludes(self, tmp_path):
        # The gaps inputs lack these actuals, and 2012Q1 has forecasts but no actual at all.
        inputs = GOLDEN_INPUTS.parent / "inputs_gaps"
        done = subprocess.run(
            [sys.executable, "-m", "judgebench.cli", "describe", "--actuals", str(inputs / "actuals.csv"),
             "--forecasts", str(inputs / "forecasts.csv"), "--out", "o"],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stderr.splitlines() == [f"warning: no actual for {quarter} (release {k}); quarter excluded"
                                            for quarter, k in [("2012Q1", 1), ("2005Q3", 2), ("2005Q4", 2),
                                                               ("2000Q1", 3)]]

    def test_warning_filter_still_makes_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.COMMANDS, "describe", lambda study, out: [np.log(np.zeros(1))])
        assert main(["describe", "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "warning: divide by zero encountered in log\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                main(["describe", "--out", str(tmp_path / "o")])


class TestReport:
    EXPECTED_TABLES = [
        "table1_descriptive.csv",
        "table2_participation.csv",
        "table3_sign_shares.csv",
        "table4_aggregate_tests.csv",
        "table5_individual_tests.csv",
        "table6_persistence_first.csv",
        "table7_persistence_second.csv",
        "table8_persistence_third.csv",
    ]

    def test_emits_all_tables_and_manifest(self, world_dir, tmp_path):
        out = tmp_path / "report"
        code = main(["report", *world_flags(world_dir), "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        for table in self.EXPECTED_TABLES:
            assert table in names
        assert "manifest.json" in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == RunConfig(
            actuals=str(world_dir / "actuals.csv"),
            forecasts=str(world_dir / "forecasts.csv"),
            spf=str(world_dir / "spf.csv"),
            out=str(out),
        ).config_hash()
        assert set(manifest["inputs"]) == {"actuals", "forecasts", "spf"}

    def test_byte_identical_across_runs(self, world_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", *world_flags(world_dir), "--out", str(out1)]) == 0
        assert main(["report", *world_flags(world_dir), "--out", str(out2)]) == 0
        a, b = read_bytes(out1), read_bytes(out2)
        assert a.keys() == b.keys()
        for name in a:
            if name == "manifest.json":
                # The manifest embeds no output paths; identical content either way.
                assert a[name] == b[name]
            else:
                assert a[name] == b[name], name


    def test_reused_out_keeps_no_stale_outputs(self, world_dir, tmp_path):
        # The gaps report writes diagnostics.csv; the world's report has none to write.
        gaps = GOLDEN_INPUTS.parent / "inputs_gaps"
        out = tmp_path / "report"
        assert main(["report", *[f for name in ("actuals", "forecasts", "spf")
                                 for f in (f"--{name}", str(gaps / f"{name}.csv"))], "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()
        (out / "notes.txt").write_text("not a report output\n")
        assert main(["report", *world_flags(world_dir), "--out", str(out)]) == 0
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "diagnostics.csv" not in listed
        assert {p.name for p in out.iterdir()} == {*listed, "manifest.json", "notes.txt"}
        assert main(["report", *world_flags(world_dir), "--baseline", "mean", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "baseline_mean.csv" in names and "baseline_median.csv" not in names

    def test_reused_out_deletes_only_plain_names_inside_it(self, world_dir, tmp_path):
        out, outside = tmp_path / "report", tmp_path / "outside.csv"
        (out / "sub").mkdir(parents=True)
        for path in (outside, out / "sub" / "kept.csv", out / "listed.csv"):
            path.write_text("x\n")
        (out / "manifest.json").write_text(json.dumps(
            {"outputs": ["../outside.csv", str(outside), "sub/kept.csv", "sub", ".", "..", "", 7, "listed.csv"]}))
        assert main(["report", *world_flags(world_dir), "--out", str(out)]) == 0
        assert outside.exists() and (out / "sub" / "kept.csv").exists()
        assert not (out / "listed.csv").exists()

    @pytest.mark.parametrize("manifest", ["{not json", "[1, 2]", '{"outputs": "listed.csv"}', "\xff"])
    def test_unreadable_manifest_deletes_nothing(self, world_dir, tmp_path, manifest):
        out = tmp_path / "report"
        out.mkdir()
        (out / "manifest.json").write_bytes(manifest.encode("latin-1"))
        (out / "listed.csv").write_text("x\n")
        assert main(["report", *world_flags(world_dir), "--out", str(out)]) == 0
        assert (out / "listed.csv").exists()

    def test_input_error_leaves_an_earlier_report_as_it_was(self, world_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", *world_flags(world_dir), "--out", str(out)]) == 0
        before = read_bytes(out)
        flags = world_flags(world_dir)
        flags[flags.index("--spf") + 1] = str(world_dir / "truth.csv")  # not an SPF file
        assert main(["report", *flags, "--out", str(out)]) == 1
        assert read_bytes(out) == before

    def test_bad_forecasts_file_exits_1_with_one_error_line(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "forecasts.csv"
        lines = (world_dir / "forecasts.csv").read_text().splitlines()
        lines[5] = "2000Q2,1,E0000,F0000,3.1,2020-13-45"
        bad.write_text("\n".join(lines) + "\n")
        flags = world_flags(world_dir)
        flags[flags.index("--forecasts") + 1] = str(bad)
        out = tmp_path / "report"
        code = main(["report", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ingestionerror")
        assert f"{bad} line 6" in err[0]
        assert not (out / "diagnostics.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("which", ["actuals", "spf", "forecasts"])
    def test_over_long_field_exits_1_with_one_error_line(self, world_dir, tmp_path, capsys, which):
        # A field over the csv module's size limit (131,072 characters).  The
        # forecasts file also holds a quote, which sends it to the row parser.
        bad = tmp_path / f"{which}.csv"
        lines = (world_dir / f"{which}.csv").read_text().splitlines()
        if which == "forecasts":
            fields = lines[2].split(",")
            fields[2] = f'"{fields[2]}"'
            lines[2] = ",".join(fields)
        lines[4] = "x" * 200_000 + lines[4][lines[4].index(","):]
        bad.write_text("\n".join(lines) + "\n")
        flags = world_flags(world_dir)
        flags[flags.index(f"--{which}") + 1] = str(bad)
        code = main(["report", *flags, "--out", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ingestionerror")
        assert f"{bad} line 5: field larger than field limit" in err[0]

    def test_release_without_forecasts_keeps_judgment_outputs(self, world_dir, tmp_path):
        lines = (world_dir / "forecasts.csv").read_text().splitlines()
        assert any(line.split(",")[1] == "3" for line in lines[1:])
        no_third = tmp_path / "forecasts.csv"
        no_third.write_text("\n".join(line for line in lines if line.split(",")[1] != "3") + "\n")
        flags = world_flags(world_dir)
        flags[flags.index("--forecasts") + 1] = str(no_third)
        out = tmp_path / "report"
        # A fresh interpreter, so that stderr shows whatever warning escapes the report.
        done = subprocess.run([sys.executable, "-m", "judgebench.cli", "report", *flags, "--out", str(out)],
                              env=src_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        # One warning for the release, not one per threshold.
        assert (out / "diagnostics.csv").read_text().splitlines() == ["stage,error",
                                                                      "judgment,release 3 has no forecasts"]
        names = {p.name for p in out.iterdir()}
        assert {"judgments.csv", "baseline_median.csv", "table3_sign_shares.csv",
                "fig3_negative_histogram.csv", "baseline_hits.csv"} <= names
        table3 = (out / "table3_sign_shares.csv").read_text().splitlines()
        assert [line for line in table3 if line.startswith("third,")] == [
            f"third,{thr},0,,,,,," for thr in ("0.1", "0.25", "0.5")
        ]
        histogram = (out / "fig3_negative_histogram.csv").read_text().splitlines()
        third = [line.rsplit(",", 1)[1] for line in histogram if line.startswith("third,")]
        assert third == ["0"] * 15
        # The third release shares no quarter with its actuals, and no economist takes part in it.
        assert (out / "baseline_hits.csv").read_text() == (
            "# baseline vs actual on the reporting grid\n"
            "release,correct,overprediction,underprediction\n"
            "first,0.354166666667,0.270833333333,0.375\n"
            "second,0.3125,0.3125,0.375\n"
            "third,,,\n"
        )
        assert (out / "table2_participation.csv").read_text() == "".join(f"{line}\n" for line in [
            "# table 2: participation and joint-coverage counts (joint counts are economist-quarter cells)",
            "metric,release,value",
            *(f"{metric},{release},{count}" for release, total, n in (("first", 513, 12), ("second", 513, 12),
                                                                       ("third", 0, 0))
              for metric, count in (("total_predictions", total), ("n_economists", n),
                                    *((f"n_economists_ge_{pct}pct", n) for pct in (10, 25, 50)))),
            "joint_cells_releases_1_2,,513",
            "joint_cells_releases_1_3,,0",
            "joint_cells_releases_2_3,,0",
            "joint_cells_releases_1_2_3,,0",
        ])


def test_release_without_actuals_leaves_the_other_releases_tested(tmp_path):
    # The golden actuals cut to release 1: releases 2 and 3 keep their rows of tables 4 and 5, untested.
    lines = (GOLDEN_INPUTS / "actuals.csv").read_text().splitlines()
    actuals, report = tmp_path / "actuals.csv", tmp_path / "report"
    actuals.write_text("".join(f"{line}\n" for line in lines if line.split(",")[1] in ("release", "1")))
    flags = [*GOLDEN_FLAGS[2:], "--actuals", str(actuals)]
    done = subprocess.run([sys.executable, "-m", "judgebench.cli", "report", *flags, "--out", str(report)],
                          env=src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert (report / "diagnostics.csv").read_text().splitlines() == [
        "stage,error", "describe,no actual for 2012Q1 (release 1); quarter excluded",
        "describe,release 2 has no actuals", "describe,release 3 has no actuals"]

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))

    golden = (GOLDEN_INPUTS.parent / "report" / "table4_aggregate_tests.csv").read_text().splitlines()
    assert (report / "table4_aggregate_tests.csv").read_text().splitlines()[:4] == golden[:4]
    untested = ("rmse: prediction and actuals share no quarters; unbiasedness: too few observations; "
                "efficiency: too few observations")
    assert [(row["release"], row["errors"]) for row in rows(report / "table4_aggregate_tests.csv")[2:]] == [
        (release, untested) for release in ("second", "second", "third", "third")]
    assert [(row["release"], row["n_tested_unbiased"], row["n_tested_efficient"])
            for row in rows(report / "table5_individual_tests.csv")] == [
        (release, n, n) for release, n in (("first", "12"), ("second", "0"), ("third", "0")) for _ in range(3)]
    assert {row["release"] for row in rows(report / "individual_detail.csv")} == {"first", "second", "third"}
    assert main(["ar-forecast", "--actuals", str(actuals), "--out", str(tmp_path / "ar")]) == 0
    assert {row["release"] for row in rows(tmp_path / "ar" / "ar_forecasts.csv")} == {"first"}


def long_gap_actuals(tmp_path: Path) -> tuple[Path, str]:
    """The golden actuals without release 2's 2005Q1-2006Q1, a gap too long to fill, and the warning it gives."""
    lines = (GOLDEN_INPUTS / "actuals.csv").read_text().splitlines()
    path = tmp_path / "actuals.csv"
    path.write_text("".join(f"{line}\n" for line in lines
                            if not (line.split(",")[1] == "2" and "2005Q1" <= line.split(",")[0] <= "2006Q1")))
    return path, f"{path}: no AR forecasts for release 2: interior gap of 5 quarters at 2005Q1 exceeds the limit of 3"


def test_a_long_actuals_gap_in_one_release_leaves_the_others_tested(tmp_path):
    # Releases 1 and 3 keep their golden rows of tables 4 and 5; release 2 is tested for bias only.
    actuals, warning = long_gap_actuals(tmp_path)
    report, golden = tmp_path / "report", GOLDEN_INPUTS.parent / "report"
    assert main(["report", *GOLDEN_FLAGS[2:], "--actuals", str(actuals), "--out", str(report)]) == 0
    assert [line for line in (report / "diagnostics.csv").read_text().splitlines()
            if line.startswith("efficiency,")] == [f"efficiency,{warning}"]
    for name, second in (("table4_aggregate_tests.csv", slice(4, 6)), ("table5_individual_tests.csv", slice(5, 8))):
        got, want = (d.joinpath(name).read_text().splitlines() for d in (report, golden))
        del got[second], want[second]  # the second release's rows
        assert got == want, name
    table4 = list(csv.DictReader((report / "table4_aggregate_tests.csv").read_text().splitlines()[1:]))
    assert [(row["release"], row["efficiency_p"], row["errors"]) for row in table4[2:4]] == [
        ("second", "", "efficiency: too few observations")] * 2
    assert all(row["unbiasedness_p"] for row in table4)
    table5 = list(csv.DictReader((report / "table5_individual_tests.csv").read_text().splitlines()[1:]))
    assert [(row["release"], row["n_tested_efficient"]) for row in table5[3:6]] == [("second", "0")] * 3
    assert (report / "individual_detail.csv").exists()


@pytest.mark.parametrize("ar_lag", ["1", "auto"])
def test_a_long_actuals_gap_in_one_release_leaves_the_others_forecast(tmp_path, capsys, ar_lag):
    actuals, warning = long_gap_actuals(tmp_path)
    for source, out in ((actuals, "ar"), (GOLDEN_INPUTS / "actuals.csv", "full")):
        assert main(["ar-forecast", "--actuals", str(source), "--ar-lag", ar_lag, "--out", str(tmp_path / out)]) == 0
    assert capsys.readouterr().err == f"warning: {warning}\n"
    full = (tmp_path / "full" / "ar_forecasts.csv").read_text().splitlines()
    assert (tmp_path / "ar" / "ar_forecasts.csv").read_text().splitlines() == [
        line for line in full if ",second," not in line]


def test_report_loads_no_numpy_ma_module(tmp_path):
    # In numpy 2.4 np.unique without flags, and np.isin, import numpy.ma (about 15 ms).
    golden = Path(__file__).parent / "golden" / "inputs"
    code = (
        "import sys; from judgebench.cli import main; "
        f"main(['report', '--actuals', {str(golden / 'actuals.csv')!r}, '--forecasts', "
        f"{str(golden / 'forecasts.csv')!r}, '--spf', {str(golden / 'spf.csv')!r}, '--out', {str(tmp_path)!r}]); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')), file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert (tmp_path / "manifest.json").exists()
    assert done.stderr.strip() == "[]"


def test_importing_the_cli_loads_no_scipy_fractions_or_decimal_and_defines_no_dataclass():
    # One fresh interpreter: the modules are listed before dataclasses is imported to test the classes.
    code = (
        "import json, sys, judgebench.cli\n"
        "loaded = {name: sorted(m for m in sys.modules if m == name or m.startswith(name + '.'))\n"
        "          for name in ('scipy', 'scipy.stats', 'scipy.linalg', 'fractions', 'decimal')}\n"
        "import dataclasses\n"
        "loaded['dataclasses'] = sorted(f'{m}.{k}' for m, module in list(sys.modules.items())\n"
        "                               if m.startswith('judgebench') for k, v in vars(module).items()\n"
        "                               if dataclasses.is_dataclass(v))\n"
        "print(json.dumps(loaded))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert loaded == dict.fromkeys(("scipy", "scipy.stats", "scipy.linalg", "fractions", "decimal", "dataclasses"), [])


class TestExitPath:
    """``main`` freezes the collector only when it runs from ``sys.argv``, as a process of its own."""

    RECOVERY = ["recovery", "--replications", "2", "--n-forecasters", "8", "--n-quarters", "12", "--out", "rec"]

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count()
        assert main(self.RECOVERY) == 0
        assert main(["describe", "--out", "o"]) == 2
        assert gc.get_freeze_count() == before

    def test_module_run_prints_what_main_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.RECOVERY) == 0
        printed = capsys.readouterr().out
        expected = (tmp_path / "rec" / "recovery_summary.csv").read_bytes()
        done = subprocess.run([sys.executable, "-m", "judgebench.cli", *self.RECOVERY], cwd=tmp_path, env=src_env(),
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, printed, "")
        assert (tmp_path / "rec" / "recovery_summary.csv").read_bytes() == expected

    @pytest.mark.parametrize("code, flags, start", [
        (1, ["--forecasts", "bad.csv"], "error: ingestionerror detail=bad.csv line 1: not UTF-8"),
        (2, ["--forecasts", "missing.csv"], "error: missing-input path=missing.csv"),
        # A line end in an echoed path is escaped.
        (1, ["--forecasts", "bad\nname.csv"], "error: ingestionerror detail=bad\\nname.csv line 1: not UTF-8"),
        (2, ["--forecasts", "missing\r\nb.csv"], "error: missing-input path=missing\\r\\nb.csv"),
        (2, ["--config", "no\nsuch.json"], "error: missing-input path=no\\nsuch.json"),
        (2, ["--config", "dir\nname"], "error: invalid-config path=dir\\nname detail="),
        (2, ["--forecasts", "dir\nname"], "error: unreadable-input path=dir\\nname detail="),
        (2, ["--out", "bad.csv"], "error: out-not-a-directory path=bad.csv"),
        (2, ["--out", "dangling/o"], "error: out-not-a-directory path=dangling"),
    ])
    def test_module_run_errors_are_one_line(self, tmp_path, code, flags, start):
        for name in ("bad.csv", "bad\nname.csv"):
            (tmp_path / name).write_bytes(b"\xffquarter\n")
        (tmp_path / "dir\nname").mkdir()
        (tmp_path / "dangling").symlink_to("no-such-directory")
        done = subprocess.run([sys.executable, "-m", "judgebench.cli", "describe", "--actuals", "bad.csv",
                               "--out", "o", *flags], cwd=tmp_path, env=src_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (code, "")
        assert done.stderr.startswith(start) and done.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists() and (tmp_path / "bad.csv").read_bytes() == b"\xffquarter\n"

    def test_argv_run_freezes_the_collector(self, tmp_path):
        code = ("import gc, sys; from judgebench.cli import main; "
                "sys.argv = ['judgebench', 'describe', '--out', 'o']; "
                "before = gc.get_freeze_count(); main(); print(before == 0 < gc.get_freeze_count())")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=src_env(), capture_output=True, text=True)
        assert done.stdout == "True\n"


class TestConfigHash:
    def test_lag_from_config_file_and_flag_hash_alike(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hac_lag": 3, "ar_lag": 2}))
        parser = build_parser()
        from_file = config_from_args(parser.parse_args(["report", "--config", str(config)]))
        from_flags = config_from_args(parser.parse_args(["report", "--hac-lag", "3", "--ar-lag", "02"]))
        assert (from_file.hac_lag, from_file.ar_lag) == (from_flags.hac_lag, from_flags.ar_lag) == ("3", "2")
        assert from_file.config_hash() == from_flags.config_hash()

    def test_number_from_config_file_and_flag_hash_alike(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kappa": 0}))
        parser = build_parser()
        from_file = config_from_args(parser.parse_args(["simulate", "--config", str(config)]))
        from_flag = config_from_args(parser.parse_args(["simulate", "--kappa", "0"]))
        assert from_file.kappa == from_flag.kappa == 0.0 and type(from_file.kappa) is float
        assert from_file.config_hash() == from_flag.config_hash()

    def test_thresholds_from_config_file_and_flag_hash_alike(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"thresholds": [0.1, 1]}))
        parser = build_parser()
        from_file = config_from_args(parser.parse_args(["judgment", "--config", str(config)]))
        from_flag = config_from_args(parser.parse_args(["judgment", "--thresholds", "0.1,1"]))
        assert from_file.thresholds == from_flag.thresholds == (0.1, 1.0)
        assert from_file.config_hash() == from_flag.config_hash()

    def test_output_directory_not_semantic(self):
        assert RunConfig(out="a").config_hash() == RunConfig(out="b").config_hash()

    def test_analysis_settings_are_semantic(self):
        base = RunConfig()
        assert RunConfig(grid=0.2).config_hash() != base.config_hash()
        assert RunConfig(baseline_method="mean").config_hash() != base.config_hash()
        assert RunConfig(seed=1).config_hash() != base.config_hash()


class TestConfigFile:
    def test_flags_override_config_file(self, world_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "forecasts": str(world_dir / "forecasts.csv"),
            "actuals": str(world_dir / "actuals.csv"),
            "baseline_method": "mean",
            "out": str(tmp_path / "from_file"),
        }))
        out = tmp_path / "override"
        code = main(["judgment", "--config", str(cfg_path),
                     "--baseline", "median", "--out", str(out)])
        assert code == 0
        assert (out / "baseline_median.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"no_such_key": 1}))
        code = main(["describe", "--config", str(cfg_path)])
        assert code == 2
        assert "unknown-config-keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, config", [
        ("ar-forecast", ["--ar-lag", "x"], None),
        ("ar-forecast", ["--ar-lag", str(DEFAULT_MAX_LAG + 1)], None),
        ("efficiency", ["--hac-lag", "x"], None),
        ("report", ["--hac-lag", "x"], None),
        ("report", ["--hac-lag", "-2"], None),
        ("report", ["--ar-lag", "9"], None),
        ("report", ["--thresholds", "a,b"], None),
        ("report", [], "{not json"),
        ("report", [], "missing"),
        ("report", [], json.dumps({"hac_lag": "1.5"})),
        ("report", [], json.dumps({"ar_lag": -1})),
        ("report", [], json.dumps({"thresholds": ["a"]})),
        ("recovery", ["--replications", "0"], None),
        ("recovery", ["--rho-own", "1.5"], None),
        ("recovery", ["--judgment-sd", "-1"], None),
        ("simulate", ["--participation-low", "0.9", "--participation-high", "0.2"], None),
        ("simulate", [], json.dumps({"rho_own": "0.5"})),
        # A world without forecasters or quarters, or with a negative seed.
        ("recovery", ["--n-forecasters", "0", "--replications", "1"], None),
        ("simulate", ["--n-forecasters", "0"], None),
        ("simulate", ["--n-quarters", "0"], None),
        ("simulate", ["--seed", "-1"], None),
        ("recovery", ["--seed", "-1"], None),
        # A sample bound that is not a YYYYQn quarter.
        ("report", ["--from", "2001Q5"], None),
        ("report", ["--to", "2001"], None),
        ("report", [], json.dumps({"sample_from": "2001Q5"})),
        ("report", [], json.dumps({"sample_to": 2001})),
        # A config-file value of another type than its flag's, or outside its flag's choices.
        ("simulate", [], json.dumps({"n_forecasters": "12"})),
        ("recovery", [], json.dumps({"n_forecasters": "12"})),
        ("simulate", [], json.dumps({"n_quarters": 12.5})),
        ("recovery", [], json.dumps({"n_quarters": 12.5})),
        ("recovery", [], json.dumps({"replications": 2.5})),
        ("recovery", [], json.dumps({"seed": "7"})),
        ("simulate", [], json.dumps({"seed": 7.5})),
        ("recovery", [], json.dumps({"seed": 7.5})),
        ("simulate", [], json.dumps({"grid": "0.1"})),
        ("recovery", [], json.dumps({"grid": "0.1"})),
        ("report", [], json.dumps({"grid": "0.1"})),
        ("report", [], json.dumps({"alpha": "x"})),
        ("simulate", [], json.dumps({"kappa": "0.3"})),
        ("report", [], json.dumps({"actuals": 5})),
        ("simulate", [], json.dumps({"rho_own": False})),
        ("report", [], json.dumps({"baseline_method": "mode"})),
        # A real-valued setting that is not finite, or outside its range.
        ("report", ["--alpha", "1.5"], None),
        ("report", ["--alpha", "0"], None),
        ("report", ["--alpha", "nan"], None),
        ("report", [], json.dumps({"alpha": float("nan")})),
        ("report", ["--grid", "-0.5"], None),
        ("report", ["--grid", "nan"], None),
        ("report", ["--grid", "inf"], None),
        pytest.param("report", [], json.dumps({"grid": 10**400}), id="report-grid-overflows-a-float"),
        ("report", ["--thresholds", "-0.2"], None),
        ("report", ["--thresholds", "nan"], None),
        ("report", ["--thresholds", "1.5"], None),
        ("recovery", ["--rho-own", "nan"], None),
        ("recovery", ["--judgment-sd", "nan"], None),
        ("simulate", ["--kappa", "nan"], None),
        # A value holding a line end is still echoed on one line.
        ("report", [], json.dumps({"baseline_method": "a\nb"})),
        # A config-file threshold must be a number, not a bool or a numeric string.
        ("judgment", [], json.dumps({"thresholds": [True, 0.5]})),
        ("judgment", [], json.dumps({"thresholds": ["0.5"]})),
        ("judgment", [], json.dumps({"thresholds": 0.5})),
        # At least one threshold, as the flag, which cannot be empty, always gives.
        ("report", [], json.dumps({"thresholds": []})),
        # Thresholds that print alike, as themselves or as percents, would label two rows alike.
        ("report", ["--thresholds", "0.5,0.5"], None),
        ("report", ["--thresholds", "0.1,0.1000000000001"], None),
        ("report", [], json.dumps({"thresholds": [0.5, 0.5]})),
        ("report", [], json.dumps({"thresholds": [0.1, 0.1000000000001]})),
        # A sample that ends before it starts.
        ("report", ["--from", "2005Q1", "--to", "2004Q4"], None),
        ("report", [], json.dumps({"sample_from": "2005Q1", "sample_to": "2004Q4"})),
    ])
    def test_bad_value_exits_2_with_one_line(self, world_dir, tmp_path, capsys, command, flags, config):
        set_by_file = ()
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            if config != "missing":
                cfg_path.write_text(config)
            flags = [*flags, "--config", str(cfg_path)]
            set_by_file = json.loads(config) if config.startswith('{"') else ()
        out = tmp_path / "out"
        # A flag overrides the config file, so an input the file sets gets no flag.
        assert main([command, *world_flags(world_dir, *set_by_file), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()

    def test_thresholds_flag_parsing(self, world_dir, tmp_path):
        out = tmp_path / "thr"
        code = main(["judgment", *world_flags(world_dir),
                     "--thresholds", "0.25,0.5", "--out", str(out)])
        assert code == 0
        text = (out / "table3_sign_shares.csv").read_text()
        assert "0.25" in text and "0.5" in text

    def test_number_from_config_file_writes_the_report_of_its_flag(self, world_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": 1}))
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert main(["report", *world_flags(world_dir), "--config", str(cfg_path), "--out", str(from_file)]) == 0
        assert main(["report", *world_flags(world_dir), "--grid", "1", "--out", str(from_flag)]) == 0
        assert read_bytes(from_file) == read_bytes(from_flag)


class TestDeclaration:
    """Each annotated attribute of ``SynthConfig`` and ``RunConfig`` declares one setting, its flag and its type."""

    def test_one_flag_per_setting_typed_by_its_default(self):
        parser = build_parser()
        settings = [action for action in parser._actions if action.dest not in ("help", "command", "config")]
        assert [action.dest for action in settings] == list(SynthConfig.__annotations__) + list(
            RunConfig.__annotations__)
        assert len(settings) == 23 and not SynthConfig.__annotations__.keys() & RunConfig.__annotations__.keys()
        for action in settings:
            default = getattr(RunConfig, action.dest)
            if type(default) in (int, float):
                parsed = getattr(parser.parse_args(["report", action.option_strings[0], "1"]), action.dest)
                assert type(parsed) is type(default), action.dest


class TestSubcommands:
    def test_describe(self, world_dir, tmp_path):
        out = tmp_path / "d"
        assert main(["describe", *world_flags(world_dir), "--out", str(out)]) == 0
        assert (out / "quarter_stats.csv").exists()
        assert (out / "table1_descriptive.csv").exists()

    def test_efficiency(self, world_dir, tmp_path):
        out = tmp_path / "e"
        assert main(["efficiency", *world_flags(world_dir), "--out", str(out)]) == 0
        assert (out / "table4_aggregate_tests.csv").exists()
        assert (out / "individual_detail.csv").exists()

    def test_efficiency_with_ar_lag_auto(self, world_dir, tmp_path):
        out = tmp_path / "e_auto"
        assert main(["efficiency", *world_flags(world_dir), "--ar-lag", "auto", "--out", str(out)]) == 0
        with open(out / "table4_aggregate_tests.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 6
        assert all(row["errors"] == "" for row in rows)

    def test_accuracy(self, world_dir, tmp_path):
        out = tmp_path / "a"
        assert main(["accuracy", *world_flags(world_dir), "--out", str(out)]) == 0
        assert (out / "accuracy_comparisons.csv").exists()
        assert (out / "beat_shares.csv").exists()

    def test_persistence(self, world_dir, tmp_path):
        out = tmp_path / "p"
        assert main(["persistence", *world_flags(world_dir), "--out", str(out)]) == 0
        for name in ("table6_persistence_first.csv", "persistence_diagnostics.csv"):
            assert (out / name).exists()

    def test_persistence_writes_singleton_and_error_rows(self, tmp_path):
        # Economist E5 has two consecutive first-release quarters, a singleton
        # under FE once its own lag is taken.  The third release has one
        # quarter, so its own-lag cells have no data and each prior-release
        # regression has one observation per economist, which FE cannot fit.
        rows = ["quarter,release,economist_id,firm_id,value,report_date"]
        for i in range(1, 6):
            for t in range(6):
                for k in (1, 2, 3):
                    if (k == 3 and t != 2) or (i == 5 and k != 2 and not (k == 1 and t in (1, 2))):
                        continue
                    value = ((i * 7 + (t + 1) * 3 + k * 5) % 11) * 0.3 - 1.5
                    rows.append(f"{2000 + t // 4}Q{t % 4 + 1},{k},E{i},F{i},{value:.1f},")
        (tmp_path / "forecasts.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "p"
        assert main(["persistence", "--forecasts", str(tmp_path / "forecasts.csv"), "--out", str(out)]) == 0
        header = ("column,regressor,spec,beta,se_clustered,stars,p_value,n_obs,n_forecasters,r_squared_within,"
                  "r_squared_overall,error")
        comment = "release (clustered on forecasters; stars at 10/5/1%)"
        no_pairs = "no economist has 2 or more observations"
        assert read_bytes(out) == {name: "".join(line + "\n" for line in lines).encode() for name, lines in {
            "persistence_diagnostics.csv": [
                "release,regressor,spec,metric,value",
                "first,own_lag,fe,singletons_dropped,1",
                "first,own_lag,fe_te,singletons_dropped,1",
                "first,own_lag,,broken_lag_chains,5",
                "first,prior_release,,broken_lag_chains,22",
                "second,own_lag,,broken_lag_chains,5",
                "second,prior_release,,broken_lag_chains,4",
                "third,own_lag,,broken_lag_chains,4",
                "third,prior_release,,broken_lag_chains,0",
            ],
            "table6_persistence_first.csv": [
                f"# table 6: judgment persistence, first {comment}", header,
                "1,own_lag,pooled,-0.174683892248,0.125246605806,,0.235566552065,21,5,0.0303393313812,"
                "0.0303393313812,",
                "2,own_lag,fe,-0.299852289513,0.126121111733,*,0.0978389195733,20,4,0.0743223623578,0.0471267720452,",
                "3,own_lag,fe_te,-0.318181818182,0.099311199245,**,0.0491854339533,20,4,0.121947496947,"
                "0.0471267720452,",
                "4,prior_release,pooled,-0.561290322581,0.391859817376,,0.247458296737,4,4,0.315046826223,"
                "0.315046826223,",
                f"5,prior_release,fe,,,,,,,,,{no_pairs}",
                f"6,prior_release,fe_te,,,,,,,,,{no_pairs}",
            ],
            "table7_persistence_second.csv": [
                f"# table 7: judgment persistence, second {comment}", header,
                "1,own_lag,pooled,-0.240784578965,0.0947629323554,*,0.0639187428475,25,5,0.0558978220486,"
                "0.0558978220486,",
                "2,own_lag,fe,-0.249559082892,0.0949409478728,*,0.058273335831,25,5,0.0622797358541,0.0558978220486,",
                "3,own_lag,fe_te,-0.239130434783,0.0598381542206,**,0.0161799983186,25,5,0.0744766505636,"
                "0.0558978220486,",
                "4,prior_release,pooled,-0.493055555556,0.0664506308899,***,0.00176085247045,26,5,0.203619811086,"
                "0.203619811086,",
                "5,prior_release,fe,-0.455595026643,0.0715390997837,***,0.00311739994229,26,5,0.179370873882,"
                "0.203619811086,",
                "6,prior_release,fe_te,-0.488764044944,0.039335770958,***,0.000241201990386,26,5,0.254881776712,"
                "0.203619811086,",
            ],
            "table8_persistence_third.csv": [
                f"# table 8: judgment persistence, third {comment}", header,
                "1,own_lag,pooled,,,,,,,,,empty persistence dataset",
                "2,own_lag,fe,,,,,,,,,empty persistence dataset",
                "3,own_lag,fe_te,,,,,,,,,empty persistence dataset",
                "4,prior_release,pooled,-0.54,0.779036122397,,0.538050187448,4,4,0.188129032258,0.188129032258,",
                f"5,prior_release,fe,,,,,,,,,{no_pairs}",
                f"6,prior_release,fe_te,,,,,,,,,{no_pairs}",
            ],
        }.items()}

    def test_ar_forecast(self, world_dir, tmp_path):
        out = tmp_path / "ar"
        assert main(["ar-forecast", *world_flags(world_dir), "--out", str(out)]) == 0
        text = (out / "ar_forecasts.csv").read_text()
        assert text.startswith("quarter,release,forecast,p_used")

    @pytest.mark.parametrize("ar_lag", ["auto", "2"])
    def test_ar_forecast_writes_the_lag_used(self, world_dir, tmp_path, ar_lag):
        out = tmp_path / "ar"
        assert main(["ar-forecast", *world_flags(world_dir), "--ar-lag", ar_lag, "--out", str(out)]) == 0
        with open(out / "ar_forecasts.csv", newline="") as fh:
            lags = [row["p_used"] for row in csv.DictReader(line for line in fh if not line.startswith("#"))]
        assert lags
        if ar_lag == "auto":
            assert all(lag.isdigit() and 0 <= int(lag) <= DEFAULT_MAX_LAG for lag in lags)
        else:
            assert set(lags) == {ar_lag}

    def test_recovery(self, tmp_path):
        out = tmp_path / "rec"
        code = main(["recovery", "--replications", "3", "--n-forecasters", "10",
                     "--n-quarters", "20", "--seed", "42", "--out", str(out)])
        assert code == 0
        text = (out / "recovery_summary.csv").read_text()
        assert "mean_beta" in text

    def test_sample_restriction(self, world_dir, tmp_path):
        out = tmp_path / "restricted"
        code = main(["judgment", *world_flags(world_dir),
                     "--from", "2001Q1", "--to", "2002Q4", "--out", str(out)])
        assert code == 0
        lines = (out / "baseline_median.csv").read_text().splitlines()
        quarters = {line.split(",")[1] for line in lines[1:]}
        assert all(q.startswith(("2001", "2002")) for q in quarters)

    # The ``report`` golden runs on the golden inputs with no other flag.
    STAGE_FILES = {
        "describe": ["quarter_stats.csv", "table1_descriptive.csv"],
        "judgment": ["baseline_median.csv", "judgments.csv", "table3_sign_shares.csv", "fig3_negative_histogram.csv",
                     "baseline_hits.csv"],
        "efficiency": ["table4_aggregate_tests.csv", "table5_individual_tests.csv", "individual_detail.csv"],
        "accuracy": ["accuracy_comparisons.csv", "beat_shares.csv"],
        "persistence": ["table6_persistence_first.csv", "table7_persistence_second.csv",
                        "table8_persistence_third.csv", "persistence_diagnostics.csv"],
    }

    @pytest.mark.parametrize("command", sorted(STAGE_FILES))
    def test_stage_writes_the_report_golden_files_byte_for_byte(self, command, tmp_path):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the judgment stage's threshold warnings
            assert main([command, *GOLDEN_FLAGS, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(self.STAGE_FILES[command])
        for name in self.STAGE_FILES[command]:
            assert (out / name).read_bytes() == (GOLDEN_INPUTS.parent / "report" / name).read_bytes(), name


class TestTable2:
    def test_each_threshold_is_labelled_by_its_percent(self, tmp_path):
        cfg = RunConfig(forecasts=str(GOLDEN_INPUTS / "forecasts.csv"), thresholds=(0.1, 0.104, 0.125))
        (path,) = cli.cmd_table2(cli.Study(cfg), tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        for release in ("first", "second", "third"):
            assert [metric for metric, rel, _ in rows if rel == release and metric.startswith("n_economists_ge_")] == [
                "n_economists_ge_10pct", "n_economists_ge_10.4pct", "n_economists_ge_12.5pct"]


def test_report_on_an_empty_sample_writes_headers_only(tmp_path):
    # Every forecast of the golden inputs is before 2030, so each per-forecaster and per-quarter table is empty.
    done = subprocess.run([sys.executable, "-m", "judgebench.cli", "report", *GOLDEN_FLAGS, "--from", "2030Q1",
                           "--out", str(tmp_path)], env=src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    headers = {
        "accuracy_comparisons.csv": "economist_id,release,n_common,rmse_self,rmse_baseline,dm_statistic,"
                                    "hln_statistic,p_value_hln,note",
        "individual_detail.csv": "economist_id,release,n_obs,alpha_hat,beta_hat,p_unbiased,p_efficient,note",
        "table5_individual_tests.csv": "release,threshold,n_qualifying,share_unbiased,share_efficient,"
                                       "n_tested_unbiased,n_tested_efficient,n_excluded_unbiased,n_excluded_efficient",
        "quarter_stats.csv": "release,quarter,n,rmse,std_dev,skewness,excess_kurtosis",
        "table1_descriptive.csv": "release,avg_n,min_n,max_n,armse,min_rmse,max_rmse,avg_std,min_std,max_std,"
                                  "avg_skew,min_skew,max_skew,avg_excess_kurt,min_excess_kurt,max_excess_kurt",
    }
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")] == [header], name
    assert (tmp_path / "diagnostics.csv").read_text().splitlines() == ["stage,error"] + [
        f"judgment,release {k} has no forecasts" for k in (1, 2, 3)]


def test_table1_averages_the_present_values_of_each_statistic(tmp_path):
    # Equal release-1 forecasts in 2005Q2 leave that quarter without spread: its skewness and kurtosis are
    # absent (NaN), and table 1 takes the average, minimum and maximum over the other quarters.
    lines = (GOLDEN_INPUTS / "forecasts.csv").read_text().splitlines()
    for at in [i for i, line in enumerate(lines) if line.startswith("2005Q2,1,")]:
        fields = lines[at].split(",")
        fields[4] = "2.5"
        lines[at] = ",".join(fields)
    (tmp_path / "forecasts.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the excluded quarter
        assert main(["describe", "--actuals", str(GOLDEN_INPUTS / "actuals.csv"),
                     "--forecasts", str(tmp_path / "forecasts.csv"), "--out", str(out)]) == 0

    def rows(name):
        with open(out / name, newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))

    first = [row for row in rows("quarter_stats.csv") if row["release"] == "first"]
    assert [row["skewness"] for row in first if row["quarter"] == "2005Q2"] == [""]
    for stat, column in (("skew", "skewness"), ("excess_kurt", "excess_kurtosis")):
        present = [float(row[column]) for row in first if row[column]]
        table1 = rows("table1_descriptive.csv")[0]
        assert float(table1[f"avg_{stat}"]) == pytest.approx(sum(present) / len(present), rel=1e-10)
        assert (float(table1[f"min_{stat}"]), float(table1[f"max_{stat}"])) == (min(present), max(present))
