"""Invariants of the panel core, checked on generated panels (hypothesis)."""
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from judgebench.errors import EstimationError
from judgebench.judgment import baseline, extract_judgments
from judgebench.panel import ForecastPanel, clean_panel
from judgebench.panelreg import fe_estimate
from judgebench.quarters import Quarter, ReleaseKind

from conftest import Obs, dataset, rec, rows_of

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
START = Quarter(2000, 1)

values = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
keys = st.tuples(st.integers(0, 5), st.integers(0, 7), st.sampled_from(list(ReleaseKind)))


@SETTINGS
@given(cells=st.dictionaries(keys, values, min_size=1, max_size=60),
       shift=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_judgments_invariant_to_a_common_shift(cells, shift):
    rows = [rec(f"E{e}", START.shifted(t), v, release) for (e, t, release), v in cells.items()]
    panel = ForecastPanel.from_rows(rows)
    moved = ForecastPanel.from_rows(row._replace(value=row.value + shift) for row in rows)
    for release in {release for _, _, release in cells}:
        for method in ("median", "mean"):
            jp = extract_judgments(panel, baseline(panel, release, method), grid=0.0)
            jp_moved = extract_judgments(moved, baseline(moved, release, method), grid=0.0)
            assert np.abs(jp_moved.value - jp.value).max() <= 1e-12


@st.composite
def persistence_panels(draw):
    """Per-economist observation counts, a seed for the values and a relabelling."""
    counts = draw(st.lists(st.integers(2, 6), min_size=3, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    relabel = draw(st.permutations(range(len(counts))))
    return counts, seed, relabel


@SETTINGS
@given(persistence_panels())
def test_fe_beta_invariant_to_relabelling_economists(drawn):
    counts, seed, relabel = drawn
    rng = np.random.default_rng(seed)
    data = []
    for i, n in enumerate(counts):
        effect = rng.normal()
        for t in range(n):
            x = rng.normal()
            data.append(Obs(f"E{i}", START.shifted(t), 0.3 * x + effect + rng.normal(0, 0.5), x))
    renamed = [o._replace(economist_id=f"R{relabel[int(o.economist_id[1:])]}") for o in data]
    for spec in ("fe", "fe_te"):
        try:
            result = fe_estimate(dataset(data), spec)
        except EstimationError:
            with pytest.raises(EstimationError):
                fe_estimate(dataset(renamed), spec)
            continue
        assert fe_estimate(dataset(renamed), spec).beta == pytest.approx(result.beta, abs=1e-10)


@SETTINGS
@given(rows=st.lists(st.tuples(st.sampled_from(["", "E0", "E1", "E2"]), st.integers(0, 3),
                               st.sampled_from(list(ReleaseKind)), values), min_size=1, max_size=40),
       data=st.data())
def test_cleaning_and_baselines_invariant_to_row_order_with_distinct_dates(rows, data):
    dated = [
        rec(econ, START.shifted(t), value, release, report_date=date.fromordinal(730000 + i))
        for i, (econ, t, release, value) in enumerate(rows)
    ]
    shuffled = data.draw(st.permutations(dated))
    cleaned, log = clean_panel(ForecastPanel.from_rows(dated))
    cleaned_shuffled, log_shuffled = clean_panel(ForecastPanel.from_rows(shuffled))
    assert sorted(rows_of(cleaned)) == sorted(rows_of(cleaned_shuffled))
    assert len(log) == len(log_shuffled)
    for release in ReleaseKind:
        for method in ("median", "mean"):
            expected = baseline(cleaned, release, method).values
            assert baseline(cleaned_shuffled, release, method).values == expected
