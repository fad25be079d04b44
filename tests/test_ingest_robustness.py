"""Malformed input ends a run with one line naming the file, never with a traceback.

A byte that is not UTF-8 is reported with the line that holds it, in each of
the three inputs.  A seeded fuzz mutates the golden inputs: each mutated file
either loads or raises IngestionError with one line that names it, a UTF-8
file gets the row parser's result, and ``report`` on it exits 1 with that
line.  A hypothesis fuzz checks the same property of a load with the same
mutations, so that a failing input shrinks.  A source is read once, so a
pipe reads as its file does.
"""
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_reader as reference
from judgebench import panel
from judgebench.cli import main
from judgebench.errors import IngestionError
from judgebench.panel import load_actuals, load_forecasts, load_spf
from reference_reader import outcome
from test_cli import src_env

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
LOADERS = {"actuals": load_actuals, "forecasts": load_forecasts, "spf": load_spf}


def copy_inputs(directory: Path) -> dict[str, Path]:
    paths = {what: directory / f"{what}.csv" for what in LOADERS}
    for what, path in paths.items():
        shutil.copyfile(GOLDEN_INPUTS / path.name, path)
    return paths


def report(paths: dict[str, Path], out: Path) -> int:
    return main(["report", "--actuals", str(paths["actuals"]), "--forecasts", str(paths["forecasts"]),
                 "--spf", str(paths["spf"]), "--out", str(out)])


@pytest.mark.parametrize("what", sorted(LOADERS))
@pytest.mark.parametrize("where", ["end", "middle"])
def test_a_byte_that_is_not_utf8_names_its_line(what, where, tmp_path, capsys):
    paths = copy_inputs(tmp_path)
    data = paths[what].read_bytes()
    lines = data.splitlines(keepends=True)
    if where == "end":  # after the final newline, so on a line of its own
        line, data = len(lines) + 1, data + b"\xff"
    else:
        line = len(lines) // 2 + 1
        before = b"".join(lines[:line - 1])
        data = before + lines[line - 1][:3] + b"\xff" + data[len(before) + 3:]
    paths[what].write_bytes(data)
    assert report(paths, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: ingestionerror detail={paths[what]} line {line}: "
                            "not UTF-8: invalid start byte 0xff\n")


def test_line_count_takes_crlf_and_cr_line_ends(tmp_path):
    path = tmp_path / "spf.csv"
    path.write_bytes(b"quarter,median,mean\r\n2000Q1,1,1\r2000Q2,1,1\r\n2000Q3,1,\xe9\r\n")
    with pytest.raises(IngestionError, match=r"^\S+ line 4: not UTF-8: invalid continuation byte 0xe9$"):
        load_spf(path)


def test_a_truncated_character_at_the_end_names_its_line(tmp_path):
    path = tmp_path / "actuals.csv"
    path.write_bytes(b"quarter,release,value\n2000Q1,1,0.5\n\xc3")
    with pytest.raises(IngestionError, match=r"line 3: not UTF-8: unexpected end of data 0xc3$"):
        load_actuals(path)


@pytest.mark.parametrize("what", sorted(LOADERS))
def test_a_stream_that_is_not_utf8_raises_ingestion_error(what):
    header = (GOLDEN_INPUTS / f"{what}.csv").read_bytes().splitlines()[0]
    stream = io.TextIOWrapper(io.BytesIO(header + b"\n\xff\n"), encoding="utf-8", newline="")
    with pytest.raises(IngestionError, match="not UTF-8"):
        LOADERS[what](stream)


@pytest.mark.parametrize("what", sorted(LOADERS))
@pytest.mark.parametrize("chunk", [3, panel.CHUNK_LINES], ids=["later-block", "same-block"])
def test_a_byte_that_is_not_utf8_is_reported_before_an_earlier_fault(what, chunk, tmp_path):
    data = b"x" + (GOLDEN_INPUTS / f"{what}.csv").read_bytes() + b"\xff"  # a bad header, then a bad byte at the end
    path = tmp_path / f"{what}.csv"
    path.write_bytes(data)
    with mock.patch.object(panel, "CHUNK_LINES", chunk):
        with pytest.raises(IngestionError, match=rf"line {len(data.splitlines())}: not UTF-8: invalid start byte"):
            LOADERS[what](path)
        with pytest.raises(IngestionError, match="not UTF-8"):
            LOADERS[what](io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


@pytest.mark.parametrize("what", sorted(LOADERS))
def test_a_byte_order_mark_fails_the_header_check(what, tmp_path, capsys):
    # A BOM is not stripped: it becomes part of the first header name.
    paths = copy_inputs(tmp_path)
    paths[what].write_bytes(b"\xef\xbb\xbf" + paths[what].read_bytes())
    assert report(paths, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: ingestionerror detail={paths[what]}: expected header")


@pytest.mark.parametrize("token", ["20050701", "2005-W27-5"])
def test_a_report_date_not_in_yyyy_mm_dd_form_names_its_line(token, tmp_path):
    # Python 3.11's date.fromisoformat reads both forms and 3.10's rejects both; ingest rejects them on either.
    path = tmp_path / "forecasts.csv"
    path.write_text("quarter,release,economist_id,firm_id,value,report_date\n"
                    f"2005Q2,1,E1,F1,1.0,2005-07-01\n2005Q2,1,E2,F1,1.5,{token}\n", encoding="utf-8")
    with pytest.raises(IngestionError) as caught:
        load_forecasts(path)
    assert str(caught.value) == f"{path} line 3: invalid report_date '{token}'"


TOKENS = [b",", b"\n", b"\r\n", b"\r", b'"', b"nan", b"1e400", b"2001Q5", b"\xff", b"\x00", b"", b"-", b"2020-13-45"]


# Where each input's 2005Q2 value is: the release-1 forecast, the release-1 actual and the SPF median.
EXTREME_FIELD = {"forecasts": ("2005Q2,1,", 4), "actuals": ("2005Q2,1,", 2), "spf": ("2005Q2,", 1)}


def set_field(path: Path, start: str, field: int, token: str) -> int:
    """Set one field of the first line that starts with ``start``, and return that line's number."""
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(start))
    fields = lines[at].split(",")
    fields[field] = token
    lines[at] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return at + 1


@pytest.mark.parametrize("what", sorted(LOADERS))
def test_an_extreme_value_is_rejected_or_overflows_nothing(what, tmp_path, capsys):
    for exponent in range(10, 301, 10):
        paths = copy_inputs(tmp_path)
        line = set_field(paths[what], *EXTREME_FIELD[what], f"1e{exponent}")
        out = tmp_path / f"out{exponent}"
        code = report(paths, out)
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", exponent
            diagnostics = (out / "diagnostics.csv").read_text() if (out / "diagnostics.csv").exists() else ""
            assert "overflow" not in diagnostics, exponent
        else:
            assert (code, err) == (1, f"error: ingestionerror detail={paths[what]} line {line}: value "
                                      f"'1e{exponent}' exceeds the magnitude limit 1e+50\n"), exponent


def test_a_forecast_of_1e100_is_one_error_line_in_a_fresh_interpreter(tmp_path):
    # Python's float power overflowed on this forecast's cross-section variance, a traceback with exit 1.
    paths = copy_inputs(tmp_path)
    line = set_field(paths["forecasts"], *EXTREME_FIELD["forecasts"], "1e100")
    done = subprocess.run([sys.executable, "-m", "judgebench.cli", "report", *(
        flag for what, path in paths.items() for flag in (f"--{what}", str(path))), "--out", str(tmp_path / "out")],
        env=src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, f"error: ingestionerror detail={paths['forecasts']} line {line}: "
                                                 "value '1e100' exceeds the magnitude limit 1e+50\n")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three edits: replace or insert a token, or delete or duplicate a line."""
    for _ in range(rng.randint(1, 3)):
        lines = data.splitlines(keepends=True)
        kind, at = rng.randrange(4), rng.randrange(len(data) + 1)
        if kind == 0:
            data = data[:at] + rng.choice(TOKENS) + data[at + rng.randint(1, 4):]
        elif kind == 1:
            data = data[:at] + rng.choice(TOKENS) + data[at:]
        elif lines:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [] if kind == 2 else [lines[i], lines[i]]
            data = b"".join(lines)
    return data


def checked_outcome(what: str, path: Path, trial=None) -> tuple:
    """The loader's outcome on one file: the row parser's on UTF-8, and any error one line that names the file."""
    got = outcome(LOADERS[what], path)
    try:
        path.read_text(encoding="utf-8")
    except UnicodeDecodeError:  # reported first, wherever another fault is
        assert got[0] == "error" and "not UTF-8" in got[1], (trial, got)
    else:
        assert got == outcome(reference.LOADERS[what], path), trial
    if got[0] == "error":
        assert got[1].startswith(str(path)) and "\n" not in got[1], (trial, got)
    return got


def test_seeded_ingest_fuzz_never_escapes_as_a_traceback(tmp_path, capsys):
    rng = random.Random(20261019)
    paths = copy_inputs(tmp_path)
    golden = {what: path.read_bytes() for what, path in paths.items()}
    loaded = rejected = 0
    for trial in range(300):
        what = rng.choice(sorted(LOADERS))
        paths[what].write_bytes(mutate(golden[what], rng))
        kind, message = checked_outcome(what, paths[what], trial)
        if kind == "error":
            rejected += 1
            if rejected <= 60:  # report reads every input first, so it stops at this one
                assert report(paths, tmp_path / "out") == 1, trial
                captured = capsys.readouterr()
                assert captured.err == f"error: ingestionerror detail={message}\n", trial
        else:
            loaded += 1
        paths[what].write_bytes(golden[what])
    assert loaded and rejected


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(what=st.sampled_from(sorted(LOADERS)), rng=st.randoms(note_method_calls=True, use_true_random=False))
def test_ingest_fuzz_shrinks_to_a_minimal_failing_file(what, rng, fuzz_dir):
    path = fuzz_dir / f"{what}.csv"
    path.write_bytes(mutate((GOLDEN_INPUTS / path.name).read_bytes(), rng))
    checked_outcome(what, path)


class _Pipe(io.RawIOBase):
    """Bytes that can be read once, front to back, like a pipe: no tell, no seek."""

    def __init__(self, data: bytes):
        self.data = data

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = min(len(buffer), len(self.data))
        buffer[:n], self.data = self.data[:n], self.data[n:]
        return n


def test_each_loader_reads_a_stream_that_cannot_seek_as_its_file():
    for what, load in LOADERS.items():
        path = GOLDEN_INPUTS / f"{what}.csv"
        stream = io.TextIOWrapper(io.BufferedReader(_Pipe(path.read_bytes())), encoding="utf-8", newline="")
        assert not stream.seekable()
        assert outcome(load, stream) == outcome(load, path), what


def test_judgment_reads_forecasts_from_a_pipe(tmp_path):
    def judgment(forecasts: str, out: Path, **pipe) -> Path:
        done = subprocess.run(
            [sys.executable, "-m", "judgebench.cli", "judgment", "--forecasts", forecasts,
             "--actuals", str(GOLDEN_INPUTS / "actuals.csv"), "--spf", str(GOLDEN_INPUTS / "spf.csv"),
             "--out", str(out)], env=src_env(), capture_output=True, **pipe)
        assert (done.returncode, done.stderr) == (0, b"")
        return out / "judgments.csv"

    forecasts = GOLDEN_INPUTS / "forecasts.csv"
    piped = judgment("/dev/stdin", tmp_path / "piped", input=forecasts.read_bytes())
    assert piped.read_bytes() == judgment(str(forecasts), tmp_path / "path").read_bytes()
