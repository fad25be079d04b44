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


@st.composite
def two_way_panels(draw):
    """Unbalanced panels with one observation per (economist, quarter) cell.

    With ``split`` the economists fall into two blocks that share no quarter,
    so the economist-quarter graph is disconnected; one quarter leaves every
    economist a singleton.
    """
    n_quarters = draw(st.integers(1, 8))
    split = n_quarters >= 4 and draw(st.booleans())
    blocks = [range(n_quarters // 2), range(n_quarters // 2, n_quarters)] if split else [range(n_quarters)]
    cells = []
    for i in range(draw(st.integers(2, 8))):
        block = blocks[i % len(blocks)]
        cells += [(i, t) for t in sorted(draw(st.sets(st.sampled_from(block), min_size=1)))]
    return cells, draw(st.integers(0, 2**32 - 1))


def two_way_dummy_ols(data):
    """FE+TE by brute force: OLS of y on x, every economist dummy and every quarter dummy but the first.

    Singletons are dropped first, and the clustered SE counts K = T regressors,
    as ``fe_estimate`` does.  Returns (beta, se, unclustered se, within R^2,
    n_obs, n_forecasters, singletons_dropped).
    """
    codes, inverse, counts = np.unique(data.economist, return_inverse=True, return_counts=True)
    keep = counts[inverse] >= 2
    if not keep.any():
        raise EstimationError("all singletons")
    econ = np.unique(inverse[keep], return_inverse=True)[1]
    quarters = np.unique(data.quarter[keep])
    y, x = data.response[keep], data.regressor[keep]
    econ_dummies = (econ[:, None] == np.arange(econ.max() + 1)[None, :]).astype(float)
    quarter_dummies = (data.quarter[keep][:, None] == quarters[None, 1:]).astype(float)
    X = np.column_stack([x, econ_dummies, quarter_dummies])
    n, g, t = y.size, econ_dummies.shape[1], quarters.size
    if g < 2 or n - t < 1 or np.linalg.matrix_rank(X) < X.shape[1]:
        raise EstimationError("no two-way estimate")
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    u = y - X @ coef
    bread = np.linalg.inv(X.T @ X)
    scores = np.zeros((g, X.shape[1]))
    np.add.at(scores, econ, X * u[:, None])
    factor = g / (g - 1) * (n - 1) / (n - t)
    cov = factor * bread @ scores.T @ scores @ bread
    se = 0.0 if np.allclose(u, 0.0) else float(np.sqrt(max(cov[0, 0], 0.0)))
    se_unclustered = float(np.sqrt(factor * (u @ u) * bread[0, 0]))
    y_within = y - (econ_dummies @ np.linalg.lstsq(econ_dummies, y, rcond=None)[0])
    r2 = 1.0 - (u @ u) / (y_within @ y_within)
    return coef[0], se, se_unclustered, r2, n, g, int(np.sum(counts < 2))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(two_way_panels())
def test_fe_te_equals_two_way_dummy_ols(drawn):
    cells, seed = drawn
    rng = np.random.default_rng(seed)
    effects, shocks = rng.normal(size=8), rng.normal(size=8)
    data = []
    for i, t in cells:
        x = rng.normal()
        data.append(Obs(f"E{i}", START.shifted(t), 0.3 * x + effects[i] + shocks[t] + rng.normal(0, 0.5), x))
    try:
        expected = two_way_dummy_ols(dataset(data))
    except EstimationError:
        with pytest.raises(EstimationError):
            fe_estimate(dataset(data), "fe_te")
        return
    result = fe_estimate(dataset(data), "fe_te")
    beta, se, se_unclustered, r2, n_obs, n_forecasters, singletons = expected
    assert result.beta == pytest.approx(beta, rel=1e-9, abs=1e-12)
    # Compared as variances.  Where the cluster scores cancel exactly (two
    # economists seen in the same quarters) the true SE is 0 and both sides
    # return rounding noise, which is small against the unclustered variance.
    assert result.se_clustered**2 == pytest.approx(se**2, rel=2e-9, abs=2e-9 * se_unclustered**2)
    assert result.r_squared == pytest.approx(r2, rel=1e-9, abs=1e-12)
    assert (result.n_obs, result.n_forecasters, result.singletons_dropped) == (n_obs, n_forecasters, singletons)
