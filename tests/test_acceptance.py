"""End-to-end acceptance suite.

Each test prints a single machine-readable verdict line (PASS/FAIL) on the
real stderr stream so the verdicts survive output capture, then asserts.
"""
import gc
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from judgebench.accuracy import dm_test, hln_correction
from judgebench.armodel import recursive_ar_forecast, select_lag
from judgebench.cli import main
from judgebench.descriptive import armse, quarter_stats
from judgebench.judgment import baseline, extract_judgments
from judgebench.linreg import (
    efficiency_regression,
    hac_covariance,
    newey_west_auto_lag,
    ols,
    wald_joint_test,
)
from judgebench.panel import ForecastPanel
from judgebench.quarters import ReleaseKind
from judgebench.syngen import SynthConfig, recovery_experiment, simulate_world

from conftest import Obs, aligned, dataset, fe_fit, present, q, rows_of, series_from

R1 = ReleaseKind.FIRST


# One pass/fail line per acceptance check; replayed after the run by the
# terminal-summary hook in conftest.py so output capture cannot hide them.
VERDICTS: list[str] = []


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {number} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}"
    VERDICTS.append(line)
    print(line, file=sys.__stderr__)


def test_fixed_effects_matches_dummy_variable_ols():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n_econ = int(rng.integers(3, 21))
        data = []
        for i in range(n_econ):
            n_t = int(rng.integers(2, 11))
            effect = float(rng.normal(0, 1))
            for t in range(n_t):
                x = float(rng.normal())
                y = 0.4 * x + effect + float(rng.normal(0, 0.5))
                data.append(Obs(f"E{i}", q(2000, 1) + t, y, x))
        fe = fe_fit(dataset(data), "fe")
        econs = sorted({o.economist_id for o in data})
        X = np.zeros((len(data), 1 + len(econs)))
        y_vec = np.empty(len(data))
        for row, o in enumerate(data):
            X[row, 0] = o.regressor
            X[row, 1 + econs.index(o.economist_id)] = 1.0
            y_vec[row] = o.response
        lsdv = np.linalg.lstsq(X, y_vec, rcond=None)[0][0]
        worst = max(worst, abs(fe.beta - lsdv))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    verdict(1, "within estimator equals entity-dummy OLS", ok,
            f"max diff {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def _brute_force_hac(X, u, L):
    T, K = X.shape
    S = np.zeros((K, K))
    for l in range(L + 1):
        w = 1.0 - l / (L + 1)
        G = np.zeros((K, K))
        for t in range(l, T):
            G += np.outer(X[t] * u[t], X[t - l] * u[t - l])
        S += G if l == 0 else w * (G + G.T)
    XtXi = np.linalg.inv(X.T @ X)
    return T / (T - K) * XtXi @ S @ XtXi


def test_hac_covariance_matches_brute_force_double_sum():
    rng = np.random.default_rng(102)
    T, L = 30, 3
    worst_hac, worst_hc = 0.0, 0.0
    for _ in range(50):
        X = np.column_stack([np.ones(T), rng.normal(size=T)])
        y = rng.normal(size=T)
        fit = ols(X, y)
        u = fit.residuals
        worst_hac = max(worst_hac, np.abs(hac_covariance(fit, X, L) - _brute_force_hac(X, u, L)).max())
        # Lag 0 is HC1: the double sum keeps only its l = 0 term.
        worst_hc = max(worst_hc, np.abs(hac_covariance(fit, X, 0) - _brute_force_hac(X, u, 0)).max())
    ok = worst_hac < 1e-10 and worst_hc < 1e-12
    verdict(2, "HAC matches brute-force double sum", ok,
            f"max HAC diff {worst_hac:.2e}, max lag-0 (HC1) diff {worst_hc:.2e}")
    assert worst_hac < 1e-10
    assert worst_hc < 1e-12


def test_dm_statistic_and_small_sample_correction():
    dm = dm_test([2.0, 0.0, 2.0, 0.0])
    factor_ok = False
    stat, p = hln_correction(1.0, 4)
    factor_ok = abs(stat - math.sqrt(3 / 4)) < 1e-12
    # Independent p-value: numerically integrate the t density with T-1 dof.
    T = 4
    stat2, p2 = hln_correction(1.7, T)
    tail, _ = scipy.integrate.quad(lambda s: scipy.stats.t.pdf(s, T - 1), abs(stat2), np.inf)
    p_quad = 2 * tail
    ok = dm == 2.0 and factor_ok and abs(p2 - p_quad) < 1e-6
    verdict(3, "DM statistic and HLN correction", ok,
            f"dm={dm}, factor diff {abs(stat - math.sqrt(3/4)):.1e}, p diff {abs(p2 - p_quad):.1e}")
    assert dm == 2.0
    assert factor_ok
    assert abs(p2 - p_quad) < 1e-6


def _rational_world_p_value(seed: int) -> float:
    """One synthetic world where the forecast is the conditional mean (given
    the lagged value and a private signal about the innovation), grid-rounded."""
    rng = np.random.default_rng(seed)
    c, phi, sd, grid = 0.5, 0.3, 2.0, 0.1
    pre, T = 60, 400
    n = pre + T
    eps = rng.normal(0, sd, size=n)
    noise = rng.normal(0, sd, size=n)
    y = np.empty(n)
    y[0] = c / (1 - phi) + eps[0]
    for i in range(1, n):
        y[i] = c + phi * y[i - 1] + eps[i]
    start = q(1970, 1)
    quarters = [start + i for i in range(n)]
    series = series_from(dict(zip(quarters, y)))
    targets = quarters[pre:]
    lag_mean = c + phi * y[pre - 1:-1]
    signal = eps[pre:] + noise[pre:]
    conditional = lag_mean + 0.5 * signal  # optimal weight for equal variances
    prediction = {t: float(np.round(v / grid) * grid) for t, v in zip(targets, conditional)}
    spf = {t: float(v + rng.normal(0, 1.0)) for t, v in zip(targets, lag_mean)}
    ar = recursive_ar_forecast(series, lag=1)
    actual, pred, spf_column, ar_column = aligned(series, prediction, spf, ar)
    fit, design = efficiency_regression(actual, pred, [spf_column, ar_column])
    lag = newey_west_auto_lag(fit.nobs)
    return wald_joint_test(fit, hac_covariance(fit, design, lag))[1]


def test_efficiency_test_size_on_rational_worlds():
    start = time.perf_counter()
    p_values = [_rational_world_p_value(1000 + r) for r in range(200)]
    rate = sum(p < 0.05 for p in p_values) / len(p_values)
    elapsed = time.perf_counter() - start
    ok = 0.02 <= rate <= 0.10 and elapsed < 60.0
    verdict(4, "efficiency test holds its 5% size", ok,
            f"rejection rate {rate:.3f}, {elapsed:.1f}s")
    assert 0.02 <= rate <= 0.10
    assert elapsed < 60.0


def test_persistence_recovery_and_coverage():
    # The Monte Carlo allocates millions of short-lived panel objects; pausing
    # the cyclic collector for its duration only affects wall-clock time.
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        config = SynthConfig(
            n_forecasters=200, n_quarters=80, rho_own=0.10, rho_own_sd=0.2,
            judgment_sd=0.2, seed=7000,
        )
        fits = recovery_experiment(config, replications=100)
        null_config = SynthConfig(
            n_forecasters=200, n_quarters=80, rho_own=0.0, rho_own_sd=0.2,
            judgment_sd=0.2, seed=7000,
        )
        null_fits = recovery_experiment(null_config, replications=100)
    finally:
        gc.enable()
    elapsed = time.perf_counter() - start
    # Over the completed replications, as recovery_summary.csv reports them.
    completed, null_completed = (np.array([not error for error in f.error]) for f in (fits, null_fits))
    mean_beta, null_mean_beta = fits.beta[completed].mean(), null_fits.beta[null_completed].mean()
    ci_coverage = fits.covered.sum() / completed.sum()
    mean_ok = 0.07 <= mean_beta <= 0.13
    coverage_ok = 0.90 <= ci_coverage <= 0.99
    null_ok = -0.02 <= null_mean_beta <= 0.02
    ok = mean_ok and coverage_ok and null_ok and elapsed < 120.0
    verdict(5, "persistence estimator recovers the truth", ok,
            f"mean {mean_beta:.4f}, coverage {ci_coverage:.2f}, "
            f"null mean {null_mean_beta:.4f}, {elapsed:.1f}s")
    assert mean_ok, mean_beta
    assert coverage_ok, ci_coverage
    assert null_ok, null_mean_beta
    assert elapsed < 120.0


def test_judgment_error_identity_and_median_balance():
    worst = 0.0
    balance_ok = True
    for seed in (1, 2, 3):
        config = SynthConfig(
            n_forecasters=25, n_quarters=40, judgment_sd=0.3,
            participation_low=0.6, participation_high=1.0, p_neutral=0.1, seed=seed,
        )
        world = simulate_world(config)
        for release in ReleaseKind:
            base = baseline(world.panel, release, "median")
            jp = extract_judgments(world.panel, base, grid=config.grid)
            actual, medians = present(world.actuals[release]), present(base)  # a KeyError where one is absent
            # j - e = actual - baseline: identical for every economist in (t,k).
            per_quarter: dict = {}
            for record, judgment in zip(rows_of(jp.panel), jp.value.tolist()):
                error = record.value - actual[record.quarter]
                per_quarter.setdefault(record.quarter, []).append(judgment - error)
            for quarter, diffs in per_quarter.items():
                worst = max(worst, max(diffs) - min(diffs))
            values_by_quarter: dict = {}
            for record in rows_of(world.panel):
                if record.release == release:
                    values_by_quarter.setdefault(record.quarter, []).append(record.value)
            for quarter, values in values_by_quarter.items():
                med = medians[quarter]
                n_t = len(values)
                if sum(v < med for v in values) > n_t / 2 or sum(v > med for v in values) > n_t / 2:
                    balance_ok = False
    ok = worst < 1e-12 and balance_ok
    verdict(6, "judgment-error identity and median balance", ok,
            f"max spread {worst:.2e}")
    assert worst < 1e-12
    assert balance_ok


def test_descriptive_moments_match_brute_force():
    rng = np.random.default_rng(107)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(4, 30))
        values = rng.normal(1.0, 2.0, size=n)
        actual = float(rng.normal())
        quarter = q(2000, 1)
        panel = ForecastPanel.from_rows(
            [(f"E{i}", quarter, R1, float(v), None) for i, v in enumerate(values)]
        )
        columns = quarter_stats(panel, series_from({quarter: actual}), R1)
        stats = SimpleNamespace(**{name: column.item() for name, column in vars(columns).items()})
        errors = values - actual
        rmse = math.sqrt(float(np.mean(errors**2)))
        centered = values - values.mean()
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
        worst = max(
            worst,
            abs(stats.rmse - rmse),
            abs(stats.std_dev - math.sqrt(m2)),
            abs(stats.skewness - m3 / m2**1.5),
            abs(stats.excess_kurtosis - (m4 / m2**2 - 3.0)),
        )
    # Aggregate of per-quarter RMSEs 1 and 3 is their plain mean.
    quarters = [q(2000, 1), q(2000, 2)]
    panel = ForecastPanel.from_rows(
        [(f"E{i}", quarters[0], R1, v, None) for i, v in enumerate((1.0, -1.0))]
        + [(f"E{i}", quarters[1], R1, v, None) for i, v in enumerate((3.0, -3.0))]
    )
    stats = quarter_stats(panel, series_from({q: 0.0 for q in quarters}), R1)
    agg = armse(stats.rmse)
    ok = worst < 1e-12 and agg == 2.0
    verdict(7, "cross-section moments match brute force", ok,
            f"max diff {worst:.2e}, armse {agg}")
    assert worst < 1e-12
    assert agg == 2.0


def test_ar_forecasts_no_lookahead_and_recovery():
    # No lookahead: perturbing data at or after the target leaves it unchanged.
    rng = np.random.default_rng(108)
    values = list(rng.normal(size=50))
    start = q(1990, 1)
    target = start + 35
    base_series = series_from({start + i: v for i, v in enumerate(values)})
    base_forecast = recursive_ar_forecast(base_series, lag=1).at(target)
    perturbed = list(values)
    for i in range(35, 50):
        perturbed[i] += 500.0
    pert_series = series_from({start + i: v for i, v in enumerate(perturbed)})
    lookahead_ok = recursive_ar_forecast(pert_series, lag=1).at(target) == base_forecast

    # Noiseless AR(1): y_t = 2 + 0.5 y_{t-1}; forecasts equal the analytic recursion.
    y = [1.0]
    for _ in range(40):
        y.append(2.0 + 0.5 * y[-1])
    series = series_from({start + i: v for i, v in enumerate(y)})
    targets = [start + i for i in range(25, 41)]
    forecasts = recursive_ar_forecast(series, lag=1)
    recovery_err = float(np.max(np.abs(forecasts.at(targets) - y[25:41])))  # NaN, and a failure, where one is absent

    # Lag selection prefers the empty model on white noise.
    zero_picks = 0
    for seed in range(100):
        noise = np.random.default_rng(seed).normal(size=120)
        if select_lag(list(noise), max_lag=4) == 0:
            zero_picks += 1

    ok = lookahead_ok and recovery_err < 1e-9 and zero_picks >= 90
    verdict(8, "AR forecasts: no lookahead, exact recovery, lag selection", ok,
            f"recovery err {recovery_err:.1e}, white-noise p=0 picks {zero_picks}/100")
    assert lookahead_ok
    assert recovery_err < 1e-9
    assert zero_picks >= 90


TABLE_HEADERS = {
    "table1_descriptive.csv": "release,avg_n,min_n,max_n,armse,min_rmse,max_rmse,"
                              "avg_std,min_std,max_std,avg_skew,min_skew,max_skew,"
                              "avg_excess_kurt,min_excess_kurt,max_excess_kurt",
    "table2_participation.csv": "metric,release,value",
    "table3_sign_shares.csv": "release,threshold,n_economists,mean_negative,sd_negative,"
                              "mean_positive,sd_positive,mean_neutral,sd_neutral",
    "table4_aggregate_tests.csv": "release,method,unbiasedness_p,efficiency_p,rmse,errors",
    "table5_individual_tests.csv": "release,threshold,n_qualifying,share_unbiased,share_efficient,"
                                   "n_tested_unbiased,n_tested_efficient,"
                                   "n_excluded_unbiased,n_excluded_efficient",
    "table6_persistence_first.csv": "column,regressor,spec,beta,se_clustered,stars,p_value,"
                                    "n_obs,n_forecasters,r_squared_within,r_squared_overall,error",
    "table7_persistence_second.csv": "column,regressor,spec,beta,se_clustered,stars,p_value,"
                                     "n_obs,n_forecasters,r_squared_within,r_squared_overall,error",
    "table8_persistence_third.csv": "column,regressor,spec,beta,se_clustered,stars,p_value,"
                                    "n_obs,n_forecasters,r_squared_within,r_squared_overall,error",
}


def test_report_is_deterministic_and_complete(tmp_path):
    world = tmp_path / "world"
    assert main(["simulate", "--seed", "11", "--n-forecasters", "15", "--n-quarters", "48",
                 "--rho-own", "0.2", "--participation-low", "0.8",
                 "--out", str(world)]) == 0
    flags = ["--actuals", str(world / "actuals.csv"),
             "--forecasts", str(world / "forecasts.csv"),
             "--spf", str(world / "spf.csv")]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", *flags, "--out", str(out1)]) == 0
    assert main(["report", *flags, "--out", str(out2)]) == 0

    identical = all(
        (out1 / p.name).read_bytes() == p.read_bytes() for p in sorted(out2.iterdir())
    ) and {p.name for p in out1.iterdir()} == {p.name for p in out2.iterdir()}

    headers_ok = True
    for name, header in TABLE_HEADERS.items():
        path = out1 / name
        if not path.exists():
            headers_ok = False
            continue
        lines = path.read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        if not data_lines or data_lines[0] != header:
            headers_ok = False
    manifest_ok = (out1 / "manifest.json").exists()

    ok = identical and headers_ok and manifest_ok
    verdict(9, "full report is byte-identical and complete", ok)
    assert identical
    assert headers_ok
    assert manifest_ok
