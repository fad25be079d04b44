"""Regression core and rationality test batteries.

OLS via QR (never forming X'X for the solve), HC1 and Newey-West sandwich
covariances, joint Wald/F tests, and the prediction-error regressions used to
test unbiasedness (intercept and slope zero) and efficiency (additionally a
zero coefficient block on the extra information set).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy.special import fdtrc

from .errors import EstimationError, RankDeficiencyError
from .judgment import BaselineSeries, passes_threshold
from .panel import ActualSeries, ForecastPanel, QuarterSeries, SpfNowcasts
from .quarters import ReleaseKind

MIN_OBS_UNBIASEDNESS = 10
MIN_OBS_EFFICIENCY = 12


@dataclass(frozen=True)
class RegressionFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    nobs: int
    nparams: int
    rss: float
    r_squared: float


@dataclass(frozen=True)
class CovarianceEstimate:
    kind: str  # "HC1", "HAC(L)" or "clustered"
    matrix: np.ndarray


@dataclass(frozen=True)
class JointTestResult:
    statistic: float  # F-form: Wald statistic divided by the restriction count
    df_num: int
    df_den: int
    p_value: float


def newey_west_auto_lag(nobs: int) -> int:
    """Standard plug-in truncation lag floor(4*(T/100)^(2/9))."""
    return int(math.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))


def ols(X: np.ndarray, y: np.ndarray) -> RegressionFit:
    """Least squares via QR decomposition with an explicit rank check.

    Raises RankDeficiencyError naming the first column that is linearly
    dependent on the preceding ones.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    nobs, nparams = X.shape
    if y.size != nobs:
        raise EstimationError(f"design has {nobs} rows but response has {y.size}")
    if nobs <= nparams:
        raise EstimationError(f"need more observations ({nobs}) than parameters ({nparams})")
    q_mat, r_mat = np.linalg.qr(X)
    diag = np.abs(np.diag(r_mat))
    tol = np.abs(r_mat).max() * max(nobs, nparams) * np.finfo(float).eps
    for j, d in enumerate(diag):
        if d <= tol:
            raise RankDeficiencyError(j)
    coef = scipy.linalg.solve_triangular(r_mat, q_mat.T @ y)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else math.nan
    return RegressionFit(coef, residuals, nobs, nparams, rss, r_squared)


def _bread(X: np.ndarray) -> np.ndarray:
    return np.linalg.inv(X.T @ X)


def hc_covariance(fit: RegressionFit, X: np.ndarray) -> CovarianceEstimate:
    """HC1: (T/(T-K)) (X'X)^-1 (sum u_t^2 x_t x_t') (X'X)^-1."""
    X = np.asarray(X, dtype=float)
    u = fit.residuals
    bread = _bread(X)
    meat = (X * (u**2)[:, None]).T @ X
    factor = fit.nobs / (fit.nobs - fit.nparams)
    return CovarianceEstimate("HC1", factor * bread @ meat @ bread)


def hac_covariance(fit: RegressionFit, X: np.ndarray, lag: int) -> CovarianceEstimate:
    """Newey-West with Bartlett weights w_l = 1 - l/(L+1), HC1-style small-sample factor."""
    X = np.asarray(X, dtype=float)
    if lag < 0:
        raise EstimationError(f"lag must be non-negative, got {lag}")
    if lag >= fit.nobs:
        raise EstimationError(f"lag {lag} must be smaller than the sample size {fit.nobs}")
    u = fit.residuals
    scores = X * u[:, None]
    meat = scores.T @ scores
    for l in range(1, lag + 1):
        w = 1.0 - l / (lag + 1.0)
        gamma = scores[l:].T @ scores[:-l]
        meat += w * (gamma + gamma.T)
    bread = _bread(X)
    factor = fit.nobs / (fit.nobs - fit.nparams)
    return CovarianceEstimate(f"HAC({lag})", factor * bread @ meat @ bread)


def wald_joint_test(
    fit: RegressionFit,
    cov: CovarianceEstimate,
    R: np.ndarray,
    r: np.ndarray | float = 0.0,
) -> JointTestResult:
    """F-form robust Wald test of R b = r against F(q, T-K)."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    q = R.shape[0]
    r_vec = np.broadcast_to(np.asarray(r, dtype=float).ravel(), (q,)) if np.ndim(r) else np.full(q, float(r))
    if np.linalg.matrix_rank(R) < q:
        raise EstimationError("restriction matrix is not of full row rank")
    diff = R @ fit.coefficients - r_vec
    df_den = fit.nobs - fit.nparams
    # Restrictions satisfied at rounding level (e.g. a perfect fit with a
    # degenerate covariance): the discrepancy is zero by construction.
    scale = max(float(np.abs(R @ fit.coefficients).max()), float(np.abs(r_vec).max()), 1.0)
    if float(np.abs(diff).max()) <= 1e-10 * scale:
        return JointTestResult(0.0, q, df_den, 1.0)
    middle = R @ cov.matrix @ R.T
    try:
        solved = np.linalg.solve(middle, diff)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("R V R' is singular") from exc
    wald = float(diff @ solved)
    statistic = max(wald, 0.0) / q
    p_value = float(fdtrc(q, df_den, statistic))
    return JointTestResult(statistic, q, df_den, p_value)


@dataclass(frozen=True)
class EfficiencyRegression:
    """A fitted prediction-error regression plus its design matrix."""

    fit: RegressionFit
    design: np.ndarray


def efficiency_regression(
    actual: np.ndarray,
    prediction: np.ndarray,
    extra_regressors: Sequence[np.ndarray] = (),
) -> EfficiencyRegression:
    """Regress (actual - prediction) on intercept, prediction, and extra columns.

    The inputs are aligned on one run of quarters in ascending order, NaN
    where a quarter is absent.  The sample is the quarters where every input
    is present, and must contain at least K+8 of them, where K counts the
    regression parameters.
    """
    nparams = 2 + len(extra_regressors)
    sample = np.logical_and.reduce([~np.isnan(c) for c in (actual, prediction, *extra_regressors)])
    nobs = int(np.count_nonzero(sample))
    required = nparams + 8
    if nobs < required:
        raise EstimationError(f"insufficient overlap: need {required} quarters, have {nobs}")
    pred = prediction[sample]
    X = np.column_stack([np.ones(nobs), pred, *(x[sample] for x in extra_regressors)])
    return EfficiencyRegression(ols(X, actual[sample] - pred), X)


def _joint_zero_test(reg: EfficiencyRegression, cov: CovarianceEstimate, q: int) -> JointTestResult:
    R = np.eye(reg.fit.nparams)[:q]
    return wald_joint_test(reg.fit, cov, R, 0.0)


def unbiasedness_test(reg: EfficiencyRegression, cov: CovarianceEstimate) -> JointTestResult:
    """H0: intercept = slope = 0 in the prediction-error regression."""
    return _joint_zero_test(reg, cov, 2)


def efficiency_test(reg: EfficiencyRegression, cov: CovarianceEstimate) -> JointTestResult:
    """H0: every coefficient (including the information-set block) is zero."""
    return _joint_zero_test(reg, cov, reg.fit.nparams)


@dataclass(frozen=True)
class AggregateCell:
    release: ReleaseKind
    method: str
    unbiasedness_p: float | None
    efficiency_p: float | None
    rmse: float | None
    errors: tuple[str, ...] = ()


def prediction_rmse(prediction: np.ndarray, actual: np.ndarray) -> float:
    """RMSE over the quarters where both aligned arrays are present."""
    both = ~np.isnan(prediction) & ~np.isnan(actual)
    if not both.any():
        raise EstimationError("prediction and actuals share no quarters")
    errs = actual[both] - prediction[both]
    return math.sqrt(float(np.mean(errs**2)))


def test_battery_aggregate(
    baselines: Mapping[tuple[ReleaseKind, str], BaselineSeries],
    actuals: Mapping[ReleaseKind, ActualSeries],
    spf: SpfNowcasts,
    ar_forecasts: Mapping[ReleaseKind, QuarterSeries],
    hac_lag: int | None = None,
) -> dict[tuple[ReleaseKind, str], AggregateCell]:
    """Unbiasedness/efficiency p-values and RMSE per (release, baseline method).

    One cell per entry of ``baselines``.  HAC covariances throughout; the
    information set pairs the method-matched SPF nowcast with the recursive
    AR forecast.  Failures are recorded per cell and leave the other cells
    intact.
    """
    report: dict[tuple[ReleaseKind, str], AggregateCell] = {}
    for (release, method), base in baselines.items():
        quarters = base.quarter_index()
        actual = actuals[release].at(quarters)
        errors: list[str] = []
        unb_p = eff_p = rmse = None
        try:
            rmse = prediction_rmse(base.values, actual)
        except EstimationError as exc:
            errors.append(f"rmse: {exc}")
        try:
            reg = efficiency_regression(actual, base.values)
            lag = newey_west_auto_lag(reg.fit.nobs) if hac_lag is None else hac_lag
            unb_p = unbiasedness_test(reg, hac_covariance(reg.fit, reg.design, lag)).p_value
        except EstimationError as exc:
            errors.append(f"unbiasedness: {exc}")
        try:
            extra = [spf.for_method(method).at(quarters), ar_forecasts[release].at(quarters)]
            reg = efficiency_regression(actual, base.values, extra)
            lag = newey_west_auto_lag(reg.fit.nobs) if hac_lag is None else hac_lag
            eff_p = efficiency_test(reg, hac_covariance(reg.fit, reg.design, lag)).p_value
        except EstimationError as exc:
            errors.append(f"efficiency: {exc}")
        report[(release, method)] = AggregateCell(release, method, unb_p, eff_p, rmse, tuple(errors))
    return report


@dataclass(frozen=True)
class ForecasterTestDetail:
    economist_id: str
    release: ReleaseKind
    nobs: int
    alpha_hat: float | None
    beta_hat: float | None
    p_unbiased: float | None
    p_efficient: float | None
    note: str = ""


@dataclass(frozen=True)
class IndividualShareRow:
    release: ReleaseKind
    threshold: float
    n_qualifying: int
    n_tested_unbiased: int
    share_unbiased: float | None
    n_tested_efficient: int
    share_efficient: float | None
    n_excluded_unbiased: int
    n_excluded_efficient: int


@dataclass
class IndividualBattery:
    shares: list[IndividualShareRow] = field(default_factory=list)
    details: list[ForecasterTestDetail] = field(default_factory=list)


def _forecaster_tests(
    economist_id: str,
    release: ReleaseKind,
    actual: np.ndarray,
    prediction: np.ndarray,
    *extra: np.ndarray,
) -> ForecasterTestDetail:
    """One forecaster's tests; the arrays are aligned on the forecaster's quarters, ascending."""
    has_actual = ~np.isnan(actual)
    nobs = int(np.count_nonzero(has_actual))
    alpha_hat = beta_hat = p_unb = p_eff = None
    notes = []
    if nobs >= MIN_OBS_UNBIASEDNESS:
        try:
            reg = efficiency_regression(actual, prediction)
            alpha_hat = float(reg.fit.coefficients[0])
            beta_hat = float(reg.fit.coefficients[1])
            p_unb = unbiasedness_test(reg, hc_covariance(reg.fit, reg.design)).p_value
        except EstimationError as exc:
            notes.append(f"unbiasedness: {exc}")
    else:
        notes.append("unbiasedness: too few observations")
    eff_nobs = np.count_nonzero(np.logical_and.reduce([has_actual, *(~np.isnan(x) for x in extra)]))
    if eff_nobs >= MIN_OBS_EFFICIENCY:
        try:
            reg = efficiency_regression(actual, prediction, extra)
            p_eff = efficiency_test(reg, hc_covariance(reg.fit, reg.design)).p_value
        except EstimationError as exc:
            notes.append(f"efficiency: {exc}")
    else:
        notes.append("efficiency: too few observations")
    return ForecasterTestDetail(
        economist_id, release, nobs, alpha_hat, beta_hat, p_unb, p_eff, "; ".join(notes)
    )


def test_battery_individual(
    panel: ForecastPanel,
    actuals: Mapping[ReleaseKind, ActualSeries],
    spf: SpfNowcasts,
    ar_forecasts: Mapping[ReleaseKind, QuarterSeries],
    participation: Mapping[ReleaseKind, np.ndarray],
    thresholds: Sequence[float] = (0.10, 0.25, 0.50),
    alpha: float = 0.05,
) -> IndividualBattery:
    """Per-forecaster unbiasedness/efficiency tests and not-rejected shares.

    Shares count forecasters whose test does not reject at level ``alpha``
    among those with enough observations; the rest are reported as excluded.
    HC1 covariance throughout; the efficiency information set is the median
    SPF nowcast and the release's AR forecast.  ``participation`` holds each
    release's ``participation_share``, indexed by the economist codes of
    ``panel``, which must be clean: one row per (economist, quarter, release).
    """
    battery = IndividualBattery()
    for release in sorted(actuals):
        rows = panel.for_release(release)
        order, codes, bounds = rows.economist_blocks()
        if not codes.size:
            continue
        quarter = rows.quarter[order]
        columns = (actuals[release].at(quarter), rows.value[order],
                   spf.median.at(quarter), ar_forecasts[release].at(quarter))
        details = [
            _forecaster_tests(panel.economist_ids[code], release, *(c[lo:hi] for c in columns))
            for code, lo, hi in zip(codes.tolist(), bounds.tolist(), bounds[1:].tolist())
        ]
        shares = participation[release][codes]
        battery.details.extend(details)
        for threshold in thresholds:
            qualifying = [d for d, ok in zip(details, passes_threshold(shares, threshold)) if ok]
            unb = [d.p_unbiased for d in qualifying if d.p_unbiased is not None]
            eff = [d.p_efficient for d in qualifying if d.p_efficient is not None]
            battery.shares.append(
                IndividualShareRow(
                    release=release,
                    threshold=threshold,
                    n_qualifying=len(qualifying),
                    n_tested_unbiased=len(unb),
                    share_unbiased=(sum(1 for p in unb if p >= alpha) / len(unb)) if unb else None,
                    n_tested_efficient=len(eff),
                    share_efficient=(sum(1 for p in eff if p >= alpha) / len(eff)) if eff else None,
                    n_excluded_unbiased=len(qualifying) - len(unb),
                    n_excluded_efficient=len(qualifying) - len(eff),
                )
            )
    return battery
