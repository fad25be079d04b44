import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgebench.errors import EstimationError
from judgebench.judgment import JudgmentPanel
from judgebench.panel import ForecastPanel
from judgebench.panelreg import (
    SPECS,
    build_persistence_dataset,
    clustered_covariance,
    persistence_battery,
    significance_stars,
)
from judgebench.quarters import ReleaseKind
from judgebench.tails import t_sf, t_test_p_value

from conftest import Obs, dataset, entries, fe_fit, q, rec

R1, R2, R3 = ReleaseKind.FIRST, ReleaseKind.SECOND, ReleaseKind.THIRD


def jp_from(entries: dict) -> dict[ReleaseKind, JudgmentPanel]:
    """Each release's judgments, keyed (economist, quarter, release) -> value, none neutral."""
    panel = ForecastPanel.from_rows(
        rec(econ, quarter, v, release) for (econ, quarter, release), v in entries.items()
    )
    out = {}
    for release in sorted({key[2] for key in entries}):
        rows = panel.for_release(release)
        out[release] = JudgmentPanel(release, rows, rows.value, np.zeros(len(rows), dtype=bool))
    return out


class TestBuildPersistenceDataset:
    def test_own_lag_adjacent_quarters(self):
        jp = jp_from({("E1", q(2000, 1), R1): 0.5, ("E1", q(2000, 2), R1): 0.3})
        data = build_persistence_dataset(jp, R1, "own_lag")
        assert len(data) == 1
        assert data.response[0] == 0.3
        assert data.regressor[0] == 0.5
        assert data.quarter[0] == q(2000, 2)

    def test_calendar_gap_breaks_chain(self):
        jp = jp_from({("E1", q(2000, 1), R1): 0.5, ("E1", q(2000, 3), R1): 0.3})
        assert len(build_persistence_dataset(jp, R1, "own_lag")) == 0

    def test_prior_release_same_quarter(self):
        jp = jp_from(
            {
                ("E1", q(2000, 1), R2): 0.4,
                ("E1", q(2000, 1), R1): 0.2,
                ("E1", q(2000, 2), R2): 0.1,  # no first-release mate -> dropped
            }
        )
        data = build_persistence_dataset(jp, R2, "prior_release")
        assert len(data) == 1
        assert (data.response[0], data.regressor[0]) == (0.4, 0.2)

    def test_first_release_uses_lagged_third(self):
        jp = jp_from({("E1", q(2000, 1), R3): 0.7, ("E1", q(2000, 2), R1): 0.1})
        data = build_persistence_dataset(jp, R1, "prior_release")
        assert len(data) == 1
        assert data.regressor[0] == 0.7


def obs(econ, quarter, y, x):
    return Obs(econ, quarter, y, x)


class TestFeEstimate:
    def test_exact_recovery_with_entity_effects(self):
        data = []
        for i, effect in enumerate((1.0, -2.0)):
            for t, x in enumerate((1.0, 3.0)):
                data.append(obs(f"E{i}", q(2000, 1) + t, 0.5 * x + effect, x))
        result = fe_fit(dataset(data), "fe")
        assert result.beta == pytest.approx(0.5, abs=1e-10)

    def test_fe_equals_entity_dummy_ols(self):
        rng = np.random.default_rng(20)
        data = []
        for i in range(5):
            effect = rng.normal()
            for t in range(rng.integers(2, 7)):
                x = rng.normal()
                y = 0.3 * x + effect + rng.normal(0, 0.5)
                data.append(obs(f"E{i}", q(2000, 1) + t, y, x))
        fe = fe_fit(dataset(data), "fe")
        econs = sorted({o.economist_id for o in data})
        X = np.zeros((len(data), 1 + len(econs)))
        y_vec = np.empty(len(data))
        for row, o in enumerate(data):
            X[row, 0] = o.regressor
            X[row, 1 + econs.index(o.economist_id)] = 1.0
            y_vec[row] = o.response
        lsdv = np.linalg.lstsq(X, y_vec, rcond=None)[0][0]
        assert abs(fe.beta - lsdv) < 1e-8

    def test_pooled_includes_intercept(self):
        data = [obs("E1", q(2000, 1) + t, 2.0 + 0.5 * t, float(t)) for t in range(6)]
        data += [obs("E2", q(2000, 1) + t, 2.0 + 0.5 * t, float(t)) for t in range(6)]
        result = fe_fit(dataset(data), "pooled")
        assert result.beta == pytest.approx(0.5, abs=1e-10)

    def test_singletons_dropped_under_fe(self):
        data = [
            obs("E1", q(2000, 1), 1.0, 0.5),
            obs("E1", q(2000, 2), 1.2, 0.6),
            obs("E2", q(2000, 1), 9.0, 9.0),  # single observation
            obs("E3", q(2000, 1), 0.4, 0.2),
            obs("E3", q(2000, 2), 0.5, 0.1),
        ]
        result = fe_fit(dataset(data), "fe")
        assert result.singletons_dropped == 1
        assert result.n_forecasters == 2

    def test_all_singletons_rejected(self):
        data = [obs("E1", q(2000, 1), 1.0, 0.5), obs("E2", q(2000, 1), 2.0, 0.7)]
        with pytest.raises(EstimationError):
            fe_fit(dataset(data), "fe")

    def test_within_ignores_entity_constant_shifts(self):
        rng = np.random.default_rng(21)
        data = []
        for i in range(4):
            for t in range(5):
                data.append(obs(f"E{i}", q(2000, 1) + t, rng.normal(), rng.normal()))
        base = fe_fit(dataset(data), "fe")
        shifted = [
            obs(o.economist_id, o.quarter, o.response, o.regressor + 10.0 * int(o.economist_id[1]))
            for o in data
        ]
        assert fe_fit(dataset(shifted), "fe").beta == pytest.approx(base.beta, abs=1e-8)

    def test_fe_te_ignores_quarter_constant_shifts(self):
        rng = np.random.default_rng(22)
        data = []
        for i in range(4):
            for t in range(6):
                data.append(obs(f"E{i}", q(2000, 1) + t, rng.normal(), rng.normal()))
        base = fe_fit(dataset(data), "fe_te")
        shifted = [
            obs(o.economist_id, o.quarter, o.response + 3.0 * o.quarter, o.regressor)
            for o in data
        ]
        assert fe_fit(dataset(shifted), "fe_te").beta == pytest.approx(base.beta, abs=1e-8)

    def test_pooled_null_slope_within_three_se(self):
        rng = np.random.default_rng(23)
        hits = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            data = []
            for i in range(10):
                for t in range(8):
                    data.append(obs(f"E{i}", q(2000, 1) + t, r.normal(), r.normal()))
            result = fe_fit(dataset(data), "pooled")
            if abs(result.beta) < 3 * result.se_clustered:
                hits += 1
        assert hits >= 95


def same_quarters_panel(seed: int = 0) -> list[Obs]:
    """Two economists seen in the same quarters: after both effects are partialled out, each
    economist's cluster score is exactly zero, so the FE+TE clustered SE is 0."""
    rng = np.random.default_rng(seed)
    data = []
    for i in range(2):
        for t in range(6):
            x = rng.normal()
            data.append(obs(f"E{i}", q(2000, 1) + t, 3.2 * x + i + 0.1 * t + rng.normal(0, 0.5), x))
    return data


class TestZeroClusteredSe:
    def test_cancelling_cluster_scores_give_zero_se(self):
        result = fe_fit(dataset(same_quarters_panel()), "fe_te")
        assert result.beta == pytest.approx(3.5097335142626, abs=1e-9)
        assert result.se_clustered == 0.0

    def test_exact_fit_gives_zero_se(self):
        data = [o._replace(response=3.2 * o.regressor + 1.0) for o in same_quarters_panel()]
        for spec in SPECS:
            result = fe_fit(dataset(data), spec)
            assert (result.beta, result.se_clustered) == (pytest.approx(3.2, abs=1e-12), 0.0)

    def test_zero_se_cell_has_p_zero_and_no_stars(self):
        judged = {(o.economist_id, o.quarter, release): o.response
                  for o in same_quarters_panel() for release in (R1, R2, R3)}
        cells, _ = persistence_battery(jp_from(judged))
        cells = [c for c in entries(cells) if c.regressor == "own_lag" and c.spec == "fe_te"]
        assert len(cells) == 3
        for cell in cells:
            assert (cell.se_clustered, cell.p_value, cell.stars) == (0.0, 0.0, "")

    def test_unsorted_rows_rejected(self):
        data = same_quarters_panel()
        with pytest.raises(ValueError, match="grouped by economist"):
            fe_fit(dataset(data[::2] + data[1::2]), "fe")


def _clustered(X, u, codes):
    """The clustered sandwich of X's rows with dense cluster codes 0..G-1."""
    return clustered_covariance(X, u, codes, int(codes.max()) + 1, np.linalg.qr(X, mode="r"))


class TestClusteredSe:
    def test_singleton_clusters_match_hc_up_to_factor(self):
        rng = np.random.default_rng(24)
        N, K = 40, 2
        X = np.column_stack([np.ones(N), rng.normal(size=N)])
        y = rng.normal(size=N)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        u = y - X @ beta
        V = _clustered(X, u, np.arange(N))
        XtXi = np.linalg.inv(X.T @ X)
        meat = (X * u[:, None] ** 2).T @ X
        factor = N / (N - 1) * (N - 1) / (N - K)
        expected = factor * XtXi @ meat @ XtXi
        assert np.abs(V - expected).max() < 1e-10

    def test_zero_residuals_zero_se(self):
        X = np.arange(8.0).reshape(-1, 1)
        assert _clustered(X, np.zeros(8), np.repeat([0, 1, 2, 3], 2))[0, 0] == 0.0

    def test_single_cluster_rejected(self):
        X = np.ones((4, 1))
        with pytest.raises(EstimationError):
            _clustered(X, np.array([1.0, -1.0, 1.0, -1.0]), np.zeros(4, dtype=int))

    def test_duplicating_clusters_scales_se_deterministically(self):
        rng = np.random.default_rng(25)
        N, K = 20, 1
        X = rng.normal(size=(N, K))
        u = rng.normal(size=N)
        clusters = np.repeat(np.arange(10), 2)
        se1 = np.sqrt(_clustered(X, u, clusters)[0, 0])
        X2 = np.vstack([X, X])
        u2 = np.concatenate([u, u])
        clusters2 = np.concatenate([clusters, clusters + 10])
        se2 = np.sqrt(_clustered(X2, u2, clusters2)[0, 0])
        # Bread gains a factor 1/2 per axis, meat doubles, finite-sample factor changes.
        G, N2 = 10, N
        c1 = G / (G - 1) * (N2 - 1) / (N2 - K)
        c2 = (2 * G) / (2 * G - 1) * (2 * N2 - 1) / (2 * N2 - K)
        expected_ratio = np.sqrt(c2 / c1 * 0.5)
        assert se2 / se1 == pytest.approx(expected_ratio, abs=1e-10)


class TestPersistenceBattery:
    def _jp(self, rho=0.5, n_econ=8, n_quarters=12, seed=0):
        rng = np.random.default_rng(seed)
        judged = {}
        for i in range(n_econ):
            for release in (R1, R2, R3):
                j = 0.0
                for t in range(n_quarters):
                    j = rho * j + rng.normal(0, 0.2)
                    judged[(f"E{i}", q(2000, 1) + t, release)] = j
        return jp_from(judged)

    def test_full_grid_of_cells(self):
        cells, _ = persistence_battery(self._jp())
        keys = {(c.release, c.regressor, c.spec) for c in entries(cells)}
        assert len(keys) == 18  # 3 releases x 2 regressors x 3 specs

    def test_degenerate_judgments_error_per_cell_but_report_emitted(self):
        judged = {
            (f"E{i}", q(2000, 1) + t, release): 0.0
            for i in range(4)
            for t in range(6)
            for release in (R1, R2, R3)
        }
        cells, _ = persistence_battery(jp_from(judged))
        assert len(entries(cells)) == 18
        assert all(cell.error for cell in entries(cells))

    def test_recovers_positive_persistence_sign(self):
        cells, _ = persistence_battery(self._jp(rho=0.6, n_econ=20, n_quarters=30))
        own_pooled = [
            c for c in entries(cells) if c.regressor == "own_lag" and c.spec == "pooled"
        ]
        assert all(not c.error and c.beta > 0.3 for c in own_pooled)


class TestSignificanceStars:
    def test_thresholds(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""


values = st.floats(-10.0, 10.0)
ses = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
dfs = st.integers(1, 10**6)


class TestTTestPValue:
    def test_zero_se_gives_one_at_the_null_and_zero_elsewhere(self):
        assert t_test_p_value(0.3, 0.3, 0.0, 5) == 1.0
        assert t_test_p_value(0.3, 0.1, 0.0, 5) == 0.0
        assert t_test_p_value([0.0, -0.2, 0.1], 0.0, 0.0, 7).tolist() == [1.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(values, values, ses, dfs), min_size=1, max_size=8))
    def test_batched_call_equals_one_call_per_element(self, cells):
        estimate, null, se, df = (np.array(column, dtype=float) for column in zip(*cells))
        one_by_one = [t_test_p_value(*args) for args in zip(estimate, null, se, df)]
        assert t_test_p_value(estimate, null, se, df).tobytes() == np.array(one_by_one).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(values, st.floats(1e-6, 10.0), dfs), min_size=1, max_size=8))
    def test_null_zero_is_the_two_sided_tail_of_beta_over_se(self, cells):
        beta, se, df = (np.array(column, dtype=float) for column in zip(*cells))
        assert t_test_p_value(beta, 0.0, se, df).tobytes() == (2.0 * t_sf(np.abs(beta / se), df)).tobytes()
