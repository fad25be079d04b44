"""The full ``report`` directory for a fixed input must not change by a byte.

The inputs and the expected report live in ``tests/golden/`` and come from
``tests/golden/make_golden.py``.  The world has participation below 1,
neutral judgments, dated and undated duplicate keys, a firm-only row and a
forecast quarter with no published actual.
"""
from pathlib import Path

from judgebench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_report_matches_golden_byte_for_byte(tmp_path, monkeypatch):
    # The manifest records the input paths, so run with the same relative ones.
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report"
    code = main(["report", "--actuals", "inputs/actuals.csv", "--forecasts", "inputs/forecasts.csv",
                 "--spf", "inputs/spf.csv", "--out", str(out)])
    assert code == 0
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "report").iterdir()}
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], name
