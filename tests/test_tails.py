"""The in-repo t and F tails: accuracy, edge rules and batching."""
import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from judgebench.tails import _RATIO_SERIES, f_sf, t_sf

from conftest import within_tail_bound

REFERENCE = Path(__file__).resolve().parent / "golden" / "tails_reference.csv"
DENSE_DF = sorted({round(10 ** (6 * i / 39)) for i in range(40)})  # log-spaced integers, 1 to 1e6
SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

dfs = st.integers(1, 10**6)
statistics = st.floats(-40.0, 40.0)


def _reference_rows():
    with REFERENCE.open(newline="", encoding="utf-8") as handle:
        return [(r["kind"], int(r["dfn"]), int(r["df"]), float(r["statistic"]), float(r["p"]))
                for r in csv.DictReader(handle)]


class TestAgainstHighPrecision:
    """Relative error against the tails of make_tails_reference.py, exact to the double."""

    def test_grid_covers_the_stated_range(self):
        rows = _reference_rows()
        assert set(DENSE_DF) <= {df for _, _, df, _, _ in rows}
        assert {dfn for kind, dfn, _, _, _ in rows if kind == "F"} == {1, 2, 3, 4}
        assert max(s for kind, _, _, s, _ in rows if kind == "t") >= 40.0
        assert min(p for *_, p in rows if p >= 1e-300) < 1e-290
        assert sum(1e-300 <= p < 1e-200 for kind, _, df, _, p in rows if kind == "t" and df <= 1e4) >= 100

    def test_t_tail(self):
        rows = [r for r in _reference_rows() if r[0] == "t"]
        ours = t_sf([s for *_, s, _ in rows], [df for _, _, df, _, _ in rows])
        bad = [(df, s, p, v) for (_, _, df, s, p), v in zip(rows, ours.tolist())
               if not within_tail_bound(v, p, df)]
        assert bad == []

    def test_f_tail(self):
        rows = [r for r in _reference_rows() if r[0] == "F"]
        ours = f_sf([s for *_, s, _ in rows], [dfn for _, dfn, *_ in rows], [df for _, _, df, _, _ in rows])
        bad = [(dfn, df, s, p, v) for (_, dfn, df, s, p), v in zip(rows, ours.tolist())
               if not within_tail_bound(v, p, df)]
        assert bad == []


def test_ratio_series_literals_are_the_bernoulli_coefficients():
    # B_k (2^(1-k) - 2) / (k (k-1)) for k = 2, 4, ..., 14, each as its nearest double.
    bernoulli = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
                 10: Fraction(5, 66), 12: Fraction(-691, 2730), 14: Fraction(7, 6)}
    assert _RATIO_SERIES == [float(b * (Fraction(2, 2**k) - 2) / (k * (k - 1))) for k, b in bernoulli.items()]


class TestEdges:
    def test_t_tail_edges(self):
        assert np.isnan(t_sf([1.0, 1.0, 1.0, 1.0, math.nan], [0.0, -3.0, math.inf, math.nan, 5.0])).all()
        assert t_sf(0.0, 7) == 0.5 and t_sf(-0.0, 7) == 0.5
        assert t_sf(math.inf, 7) == 0.0 and t_sf(-math.inf, 7) == 1.0

    def test_f_tail_edges(self):
        bad = f_sf([1.0, 1.0, 1.0, 1.0, -1.0, math.nan], [-1, 0, 2.5, 2, 2, 2], [5.0, 5.0, 5.0, 0.0, 5.0, 5.0])
        assert np.isnan(bad).all()
        assert f_sf(0.0, 3, 7) == 1.0 and f_sf(math.inf, 3, 7) == 0.0

    def test_statistics_beyond_the_square_root_of_the_largest_double(self):
        # P(|T| > t) for one degree of freedom is about 2/(pi t), with no overflow on the way.
        assert t_sf(1e200, 1) == pytest.approx(1 / (math.pi * 1e200), rel=1e-12)

    def test_shapes(self):
        assert isinstance(t_sf(1.0, 3), np.float64)
        assert t_sf(np.ones((2, 3)), [1, 2, 3]).shape == (2, 3)
        assert f_sf([], 2, 5).shape == (0,)


@settings(SETTINGS, max_examples=60)
@given(st.lists(st.tuples(statistics, dfs, st.integers(1, 4)), min_size=1, max_size=8))
def test_batched_call_equals_one_call_per_element(cells):
    t, df, dfn = (np.array(column, dtype=float) for column in zip(*cells))
    f = t * t
    for batched, one_by_one in (
        (t_sf(t, df), [t_sf(a, b) for a, b in zip(t, df)]),
        (f_sf(f, dfn, df), [f_sf(a, b, c) for a, b, c in zip(f, dfn, df)]),
    ):
        assert batched.tobytes() == np.array(one_by_one).tobytes()


@SETTINGS
@given(statistics, dfs)
def test_t_tail_is_symmetric(t, df):
    # t_sf(-t) = 1 - t_sf(t), stated as a sum of 1 so that neither side cancels.
    assert within_tail_bound(float(t_sf(-t, df)) + float(t_sf(t, df)), 1.0, df)


@SETTINGS
@given(statistics, dfs)
def test_f_tail_with_one_restriction_is_the_two_sided_t_tail(t, df):
    assert within_tail_bound(float(f_sf(t * t, 1, df)), 2.0 * float(t_sf(abs(t), df)), df)
