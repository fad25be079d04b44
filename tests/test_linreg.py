import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from judgebench.accuracy import hln_correction
from judgebench.errors import EstimationError, RankDeficiencyError
from judgebench.judgment import baseline
import judgebench.linreg
from judgebench.linreg import (
    RegressionFit,
    efficiency_regression,
    hac_covariance,
    newey_west_auto_lag,
    ols,
    test_battery_aggregate as battery_aggregate,
    test_battery_individual as battery_individual,
    wald_joint_test,
)
from judgebench.panel import QuarterSeries, participation_share
from judgebench.quarters import ReleaseKind
from judgebench.tails import t_test_p_value

from conftest import aligned, panel_from_values, present, q, series_from, within_tail_bound

R1 = ReleaseKind.FIRST


def test_ols_is_the_one_least_squares_routine():
    """No module calls lstsq, and only linreg.py calls np.linalg.solve."""
    for path in sorted(Path(judgebench.linreg.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "lstsq" not in text, path.name
        assert path.name == "linreg.py" or "np.linalg.solve" not in text, path.name


def test_no_module_calls_eigh():
    """A linear system is solved, never eigendecomposed: FE+TE checks its rank on the economist-quarter graph."""
    for path in sorted(Path(judgebench.linreg.__file__).parent.glob("*.py")):
        assert not re.search(r"\beigh\b", path.read_text(encoding="utf-8")), path.name


def test_no_module_imports_scipy():
    """The t and F tails are the package's own; numpy is its only runtime dependency."""
    for path in sorted(Path(judgebench.linreg.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+scipy\b", text, re.MULTILINE), path.name


def test_analyses_read_the_canonical_order_without_sorting_rows():
    """The analysis modules read release slices and economist runs off the canonical order; none runs a lexsort."""
    root = Path(judgebench.linreg.__file__).parent
    for name in ("accuracy.py", "linreg.py", "panelreg.py", "judgment.py", "descriptive.py"):
        assert "lexsort" not in (root / name).read_text(encoding="utf-8"), name


class TestOls:
    def test_exact_fit(self):
        x = np.arange(5.0)
        X = np.column_stack([np.ones(5), x])
        fit = ols(X, x)
        assert fit.coefficients == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_intercept_only(self):
        fit = ols(np.ones((6, 1)), np.full(6, 3.5))
        assert fit.coefficients == pytest.approx([3.5], abs=1e-12)

    def test_hand_solved_normal_equations(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([1.0, 2.0, 4.0])
        fit = ols(X, y)
        assert fit.coefficients == pytest.approx([-2 / 3, 3 / 2], abs=1e-10)

    def test_rank_deficiency_names_column(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(RankDeficiencyError) as exc:
            ols(X, np.arange(10.0))
        assert exc.value.column == 2

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = rng.normal(size=40)
        fit = ols(X, y)
        assert np.abs(X.T @ fit.residuals).max() < 1e-8 * max(1.0, np.abs(y).max())

    def test_matches_normal_equation_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
            y = rng.normal(size=30)
            expected = np.linalg.solve(X.T @ X, X.T @ y)
            assert ols(X, y).coefficients == pytest.approx(expected, abs=1e-8)

    def test_stack_matches_single_fits(self):
        # Three regressions of 12, 9 and 12 rows, padded with zero rows to 12;
        # the third has a constant second column and is rank deficient.
        rng = np.random.default_rng(16)
        X = np.column_stack([np.ones(36), rng.normal(size=36)]).reshape(3, 12, 2)
        X[2, :, 1] = 0.5
        y = rng.normal(size=(3, 12))
        mask = np.ones((3, 12), dtype=bool)
        mask[1, 9:] = False
        X[~mask], y[~mask] = 0.0, 0.0
        stack = ols(X, y, mask)
        assert stack.nobs.tolist() == [12, 9, 12]
        for g, n in ((0, 12), (1, 9)):
            single = ols(X[g, :n], y[g, :n])
            assert stack.coefficients[g] == pytest.approx(single.coefficients, rel=1e-12)
            assert stack.r_squared[g] == pytest.approx(single.r_squared, rel=1e-12)
            V = hac_covariance(stack, X, 0)[g]
            assert V == pytest.approx(hac_covariance(single, X[g, :n], 0), rel=1e-12)
        assert np.isnan(stack.coefficients[2]).all()
        with pytest.raises(RankDeficiencyError):
            ols(X[2], y[2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(25), rng.normal(size=25)])
        y = rng.normal(size=25)
        perm = rng.permutation(25)
        a = ols(X, y)
        b = ols(X[perm], y[perm])
        assert a.coefficients == pytest.approx(b.coefficients, abs=1e-10)
        va = hac_covariance(a, X, 0)
        vb = hac_covariance(b, X[perm], 0)
        assert va == pytest.approx(vb, abs=1e-10)


class TestHcCovariance:
    def test_zero_residuals_give_zero_matrix(self):
        x = np.arange(8.0)
        X = np.column_stack([np.ones(8), x])
        fit = ols(X, 2 + 3 * x)
        assert np.abs(hac_covariance(fit, X, 0)).max() < 1e-20

    def test_equal_magnitude_residuals_on_orthonormal_design(self):
        # Orthonormal columns and |u_t| = u constant: V = u^2 * T/(T-K) * I.
        T = 8
        X = np.column_stack([np.ones(T), np.tile([1.0, -1.0], T // 2)]) / math.sqrt(T)
        u = 0.5
        y = X @ [1.0, 2.0] + u * np.tile([1.0, 1.0, -1.0, -1.0], T // 4)
        fit = ols(X, y)
        V = hac_covariance(fit, X, 0)
        expected = u**2 * T / (T - 2) * np.eye(2)
        assert V == pytest.approx(expected, abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = np.column_stack([np.ones(20), rng.normal(size=20)])
            y = rng.normal(size=20)
            fit = ols(X, y)
            u = fit.residuals
            XtXi = np.linalg.inv(X.T @ X)
            meat = (X * u[:, None] ** 2).T @ X
            expected = 20 / (20 - 2) * XtXi @ meat @ XtXi
            assert np.abs(hac_covariance(fit, X, 0) - expected).max() < 1e-10

    def test_intercept_shift_leaves_covariance_unchanged(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        fit1 = ols(X, y)
        fit2 = ols(X, y + 7.0)
        assert fit1.residuals == pytest.approx(fit2.residuals, abs=1e-10)
        assert hac_covariance(fit1, X, 0) == pytest.approx(hac_covariance(fit2, X, 0), abs=1e-10)


class TestHacCovariance:
    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(6)
        T, K, L = 30, 2, 3
        for _ in range(10):
            X = np.column_stack([np.ones(T), rng.normal(size=T)])
            y = rng.normal(size=T)
            fit = ols(X, y)
            u = fit.residuals
            S = np.zeros((K, K))
            for l in range(L + 1):
                w = 1.0 - l / (L + 1)
                G = np.zeros((K, K))
                for t in range(l, T):
                    G += np.outer(X[t] * u[t], X[t - l] * u[t - l])
                S += G if l == 0 else w * (G + G.T)
            XtXi = np.linalg.inv(X.T @ X)
            expected = T / (T - K) * XtXi @ S @ XtXi
            assert np.abs(hac_covariance(fit, X, L) - expected).max() < 1e-10

    def test_stack_with_one_lag_per_member_matches_single_fits(self):
        # Three regressions of 30, 22 and 30 rows, padded with zero rows to 30;
        # the lags differ per member, and one lag for all broadcasts.
        rng = np.random.default_rng(18)
        X = np.column_stack([np.ones(90), rng.normal(size=90)]).reshape(3, 30, 2)
        y = rng.normal(size=(3, 30))
        mask = np.ones((3, 30), dtype=bool)
        mask[1, 22:] = False
        X[~mask], y[~mask] = 0.0, 0.0
        stack = ols(X, y, mask)
        for lags in ([3, 0, 6], [2, 2, 2], 2):
            V = hac_covariance(stack, X, lags)
            for g, (n, lag) in enumerate(zip((30, 22, 30), np.broadcast_to(lags, 3).tolist())):
                single = ols(X[g, :n], y[g, :n])
                assert V[g] == pytest.approx(hac_covariance(single, X[g, :n], lag), rel=1e-12)

    def test_lag_at_least_t_rejected(self):
        X = np.ones((5, 1))
        fit = ols(X, np.arange(5.0))
        with pytest.raises(EstimationError):
            hac_covariance(fit, X, 5)

    def test_order_sensitivity(self):
        # Shuffling observations changes the lagged cross-products, hence the
        # estimate, even though the coefficients are unchanged.
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(30), np.cumsum(rng.normal(size=30))])
        y = np.cumsum(rng.normal(size=30))
        fit = ols(X, y)
        ordered = hac_covariance(fit, X, 3)
        perm = rng.permutation(30)
        fit_p = ols(X[perm], y[perm])
        shuffled = hac_covariance(fit_p, X[perm], 3)
        assert not np.allclose(ordered, shuffled, atol=1e-12)

    def test_auto_lag_rule(self):
        assert newey_west_auto_lag(100) == 4
        assert newey_west_auto_lag(92) == 3
        assert newey_west_auto_lag(30) == 3


class TestWaldJointTest:
    def test_coefficients_at_rounding_level_give_f_zero_and_p_one(self):
        # Within 1e-10 max(max|b|, 1) of zero the test is satisfied, even where V is singular.
        fit = RegressionFit(np.array([1e-11, -1e-11]), np.zeros(0), 20, 2, 0.0, math.nan)
        for cov in (np.eye(2) * 1e-30, np.zeros((2, 2))):
            assert (*wald_joint_test(fit, cov), fit.nparams, fit.nobs - fit.nparams) == (0.0, 1.0, 2, 18)
        fit = RegressionFit(np.array([1e-9, -1e-9]), np.zeros(0), 20, 2, 0.0, math.nan)
        assert wald_joint_test(fit, np.eye(2) * 1e-30)[0] == pytest.approx(1e12)

    def test_singular_covariance_raises_for_one_fit_and_gives_nan_in_a_stack(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = RegressionFit(np.array([0.5, 0.25]), np.zeros(0), 20, 2, 0.0, math.nan)
        with pytest.raises(EstimationError, match="singular"):
            wald_joint_test(fit, cov)
        stack = RegressionFit(np.array([[0.5, 0.25], [0.5, 0.25]]), np.zeros(0), np.array([20, 20]), 2,
                              np.zeros(2), np.zeros(2))
        statistic, p_value = wald_joint_test(stack, np.stack([cov, np.eye(2)]))
        assert math.isnan(statistic[0]) and math.isnan(p_value[0])
        assert statistic[1] == pytest.approx((0.5**2 + 0.25**2) / 2)

    def test_single_coefficient_equals_squared_t_ratio(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 1))
        fit = ols(X, rng.normal(size=30))
        V = hac_covariance(fit, X, 0)
        t_ratio = fit.coefficients[0] / math.sqrt(V[0, 0])
        statistic, _ = wald_joint_test(fit, V)
        assert statistic == pytest.approx(t_ratio**2, abs=1e-10)

    def test_p_value_against_quadrature(self):
        # Fixed case: F = 3.32 with (2, 30) degrees of freedom.
        F, q_df, d_df = 3.32, 2, 30
        tail, _ = scipy.integrate.quad(lambda v: scipy.stats.f.pdf(v, q_df, d_df), F, np.inf)
        assert abs(tail - 0.0501) < 5e-4
        p = scipy.stats.f.sf(F, q_df, d_df)
        assert p == pytest.approx(tail, abs=1e-8)


EDGE_DF = (-2, 0, 1, 2, 5, 30, 1000, 10**6)
EDGE_STAT = (0.0, 0.7, 1.96, 40.0, math.nan)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestDistributionFunctions:
    """The t and F tails agree with scipy.stats within the stated relative bound
    (1e-13 for df <= 1e4, 1e-12 beyond); NaN edges and a zero statistic agree exactly.
    At the edge of the 95% t interval the two-sided t test gives p = 0.05 within the same bound."""

    @pytest.mark.parametrize("df", EDGE_DF)
    @pytest.mark.parametrize("x", EDGE_STAT)
    def test_hln_p_value(self, df, x):
        nobs = df + 1
        stat, p = hln_correction(x, nobs)
        reference = 2.0 * float(scipy.stats.t.sf(abs(stat), df=df))
        if x == 0.0 or math.isnan(reference):
            assert _same(p, reference)
        else:
            assert within_tail_bound(p, reference, df)

    @pytest.mark.parametrize("df", EDGE_DF)
    @pytest.mark.parametrize("x", EDGE_STAT)
    @pytest.mark.parametrize("q", [1, 3])
    def test_wald_p_value(self, df, x, q):
        # A negative variance clips the Wald form to 0, so x = 0 reaches the F tail too.
        sign = -1.0 if x == 0.0 else 1.0
        fit = RegressionFit(np.full(q, x or 1.0), np.zeros(0), df + q, q, 0.0, math.nan)
        statistic, p_value = wald_joint_test(fit, sign * np.eye(q))
        assert fit.nobs - fit.nparams == df
        reference = float(scipy.stats.f.sf(statistic, q, df))
        if x == 0.0 or math.isnan(reference):
            assert _same(p_value, reference)
        else:
            assert within_tail_bound(p_value, reference, df)

    @pytest.mark.parametrize("df", (*EDGE_DF, math.nan))
    def test_t_test_p_value_at_the_95_percent_interval_edge(self, df):
        # Recovery counts a replication as covered when p >= 0.05; that is the
        # interval form only if p is 0.05 where the interval ends.
        critical = float(scipy.stats.t.ppf(0.975, df=df))
        rho, se = 0.5, 0.25
        p = float(t_test_p_value(rho + critical * se, rho, se, df))
        if math.isnan(critical):
            assert math.isnan(p)
        else:
            assert within_tail_bound(p, 0.05, df)


def _series(values, start=q(2000, 1)):
    return series_from({start + i: float(v) for i, v in enumerate(values)})


class TestEfficiencyRegression:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=20)
        actuals = _series(y)
        pred = present(actuals)
        fit, _ = efficiency_regression(*aligned(actuals, pred))
        assert fit.coefficients == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_constant_bias_loads_on_intercept(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=30)
        actuals = _series(y)
        pred = {quarter: value - 0.7 for quarter, value in present(actuals).items()}
        fit, _ = efficiency_regression(*aligned(actuals, pred))
        assert fit.coefficients == pytest.approx([0.7, 0.0], abs=1e-8)

    def test_regressor_equal_to_prediction_rejected(self):
        rng = np.random.default_rng(13)
        actuals = _series(rng.normal(size=20))
        pred = {quarter: value + rng.normal() for quarter, value in present(actuals).items()}
        actual, prediction, copy = aligned(actuals, pred, dict(pred))
        with pytest.raises(RankDeficiencyError):
            efficiency_regression(actual, prediction, [copy])

    def test_insufficient_overlap_reports_counts(self):
        actuals = _series([1.0, 2.0, 3.0])
        pred = present(actuals)
        with pytest.raises(EstimationError, match="3"):
            efficiency_regression(*aligned(actuals, pred))


def _participation(panel):
    return {rel: participation_share(panel, rel) for rel in ReleaseKind}


class TestBatteries:
    def _world(self):
        rng = np.random.default_rng(14)
        T = 40
        start = q(2000, 1)
        y = rng.normal(1.0, 1.0, size=T)
        quarters = [start + i for i in range(T)]
        actuals = {k: series_from(dict(zip(quarters, y))) for k in ReleaseKind}
        # Every forecaster reports the actual exactly: judgment-free rational panel.
        values = {quarter: [v, v, v] for quarter, v in zip(quarters, y)}
        panel_records = []
        from conftest import rec

        for release in ReleaseKind:
            for quarter, vals in values.items():
                for i, v in enumerate(vals):
                    panel_records.append(rec(f"E{i}", quarter, v, release))
        from judgebench.panel import ForecastPanel

        panel = ForecastPanel.from_rows(panel_records)
        spf = {
            "median": series_from({quarter: v + float(rng.normal(0, 0.5)) for quarter, v in zip(quarters, y)}),
            "mean": series_from({quarter: v + float(rng.normal(0, 0.5)) for quarter, v in zip(quarters, y)}),
        }
        ar = {
            k: series_from({quarter: v + float(rng.normal(0, 0.5)) for quarter, v in zip(quarters, y)})
            for k in ReleaseKind
        }
        return panel, actuals, spf, ar

    def test_aggregate_perfect_baseline(self):
        panel, actuals, spf, ar = self._world()
        baselines = {(rel, m): baseline(panel, rel, m) for rel in actuals for m in ("median", "mean")}
        cells = battery_aggregate(baselines, actuals, spf, ar)
        row = list(baselines).index((R1, "median"))
        assert cells.rmse[row] == pytest.approx(0.0, abs=1e-12)
        assert cells.unbiasedness_p[row] == pytest.approx(1.0, abs=1e-9)

    def test_individual_all_forecasters_match_actual(self):
        panel, actuals, spf, ar = self._world()
        _, shares = battery_individual(panel, actuals, spf, ar, _participation(panel), thresholds=(0.5,))
        for n_unb, share_unb, n_eff, share_eff in zip(shares.n_tested_unbiased, shares.share_unbiased,
                                                      shares.n_tested_efficient, shares.share_efficient):
            if n_unb:
                assert share_unb == 1.0
            if n_eff:
                assert share_eff == 1.0

    def test_individual_biased_forecaster_rejected(self):
        panel, actuals, spf, ar = self._world()
        from conftest import rec, rows_of
        from judgebench.panel import ForecastPanel

        biased = [
            rec("EB", quarter, value + 1.0, R1)
            for quarter, value in present(actuals[R1]).items()
        ]
        panel2 = ForecastPanel.from_rows([*rows_of(panel), *biased])
        details, _ = battery_individual(panel2, actuals, spf, ar, _participation(panel2), thresholds=(0.5,))
        (row,) = np.flatnonzero((details.release == R1) & (details.economist == panel2.economist_ids.index("EB")))
        assert not math.isnan(details.p_unbiased[row]) and details.p_unbiased[row] < 0.05
        assert details.alpha_hat[row] == pytest.approx(-1.0, abs=1e-8)

    def test_table4_rmse_and_its_note(self):
        # The RMSE over the quarters where baseline and actual are both present; none gives NaN and a note.
        actuals = {R1: _series([1.0, 2.0, np.nan, 4.0])}
        baselines = {(R1, "median"): QuarterSeries(q(2000, 1), np.array([2.0, 2.0, 3.0])),
                     (R1, "mean"): QuarterSeries(q(2001, 1), np.array([1.0]))}
        nowcasts = _series([1.0] * 4)
        cells = battery_aggregate(baselines, actuals, {"median": nowcasts, "mean": nowcasts}, {R1: nowcasts})
        assert cells.rmse[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert math.isnan(cells.rmse[1])
        assert cells.errors[1].split("; ")[0] == "rmse: prediction and actuals share no quarters"
        assert "rmse" not in cells.errors[0]

