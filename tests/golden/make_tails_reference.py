"""Regenerate ``tails_reference.csv``, the high-precision t and F tails that ``tests/test_tails.py`` reads.

    python3 tests/golden/make_tails_reference.py

Needs mpmath, which the tests themselves do not: they read the committed file.
Each row is one tail probability on the grid below, or at one of ``DEEP``
seeded draws of df in [1e3, 1e4] with t set so that log p lies in [-685, -500],
the tails where the exponent a log1p(t²/df) is large: ``t`` rows hold
P(T > statistic) with ``df`` degrees of freedom, ``F`` rows P(F > statistic)
with (``dfn``, ``df``).  Both are regularized incomplete betas, evaluated by
``mpmath.betainc`` at 40 significant digits, checked against a second
evaluation at 60 digits, and written as the nearest double.  ``scipy.stats``
is not precise enough to serve here: it misses these values by up to 1.5e-11
(F, dfn = 4, df = 1e6) and, for df <= 1e4, by up to 5.6e-13 (F, dfn = 3,
p near 2e-245), outside the stated bounds of the tails at 77 of the rows.
"""
from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "tails_reference.csv"
DFS = sorted({round(10 ** (6 * i / 39)) for i in range(40)})  # log-spaced integers, 1 to 1e6
T_STATS = ("0.05", "0.3", "0.7", "1", "1.5", "1.96", "2.5", "3", "5", "8", "12", "20", "30", "40")
F_STATS = ("0.01", "0.3", "1", "2", "4", "10", "30", "100", "400", "1600")
DFNS = (1, 2, 3, 4)
DEEP = 150


def deep_rows() -> list[tuple[str, int, int, str]]:
    """t rows far in the tail: (df + 1)/2 log1p(t²/df) drawn from [500, 685]."""
    rng = random.Random(12)
    rows = []
    for _ in range(DEEP):
        df = round(10 ** rng.uniform(3, 4))
        t = math.sqrt(df * math.expm1(2 * rng.uniform(500, 685) / (df + 1)))
        rows.append(("t", 1, df, repr(t)))
    return rows


def tail(dfn: int, df: int, w: mp.mpf) -> mp.mpf:
    """I_x(df/2, dfn/2) with x = 1/(1 + w): the F tail at w = dfn f/df, and twice the t tail at w = t²/df."""
    return mp.betainc(mp.mpf(df) / 2, mp.mpf(dfn) / 2, 0, 1 / (1 + w), regularized=True)


def checked(dfn: int, df: int, statistic: str, kind: str) -> float:
    values = []
    for digits in (40, 60):
        with mp.workdps(digits):
            s = mp.mpf(float(statistic))
            w = s * s / df if kind == "t" else dfn * s / df
            values.append(tail(dfn, df, w) / (2 if kind == "t" else 1))
    with mp.workdps(60):
        if values[1] != 0 and abs(values[0] / values[1] - 1) > mp.mpf("1e-30"):
            raise SystemExit(f"{kind} dfn={dfn} df={df} statistic={statistic}: precision check failed")
    return float(values[1])


def main() -> None:
    rows = [("t", 1, df, s) for df in DFS for s in T_STATS]
    rows += [("F", dfn, df, s) for dfn in DFNS for df in DFS for s in F_STATS]
    rows += deep_rows()
    with OUT.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("kind", "dfn", "df", "statistic", "p"))
        for kind, dfn, df, statistic in rows:
            writer.writerow((kind, dfn, df, statistic, repr(checked(dfn, df, statistic, kind))))


if __name__ == "__main__":
    main()
