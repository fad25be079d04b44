"""Regression core and rationality test batteries.

OLS via QR of one design or a stack of them, the Newey-West sandwich (lag 0
is HC1) with the bread R^-1 R^-T from the QR, the F-form Wald test that every
coefficient is zero, and the prediction-error regressions it tests for
unbiasedness (intercept and slope) and efficiency (with a coefficient block on
the extra information set).  Both batteries fit their regressions as one
stack per test.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .descriptive import rmse
from .errors import EstimationError, RankDeficiencyError
from .judgment import DEFAULT_THRESHOLDS, BaselineSeries, passes_threshold
from .panel import ForecastPanel, QuarterSeries, SpfNowcasts, distinct, economist_runs
from .quarters import ReleaseKind
from .tails import f_sf

MIN_OBS_UNBIASEDNESS = 10
MIN_OBS_EFFICIENCY = 12


class RegressionFit:
    """One least-squares fit, or a stack of them with a leading axis on every array.

    ``r`` is the R factor of the design's QR; None for a fit not made by ``ols``.
    """

    def __init__(self, coefficients: np.ndarray, residuals: np.ndarray, nobs: int | np.ndarray, nparams: int,
                 rss: float | np.ndarray, r_squared: float | np.ndarray, r: np.ndarray | None = None):
        self.coefficients, self.residuals, self.nobs, self.nparams = coefficients, residuals, nobs, nparams
        self.rss, self.r_squared, self.r = rss, r_squared, r


def newey_west_auto_lag(nobs: int) -> int:
    """Standard plug-in truncation lag floor(4*(T/100)^(2/9))."""
    return int(math.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))


def _dependent_column(r: np.ndarray, nobs: int | np.ndarray) -> np.ndarray:
    """First design column linearly dependent on the earlier ones, per R factor; -1 where none is."""
    low = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) <= (
        np.abs(r).max(axis=(-2, -1)) * np.maximum(nobs, r.shape[-1]) * np.finfo(float).eps)[..., None]
    return np.where(low.any(axis=-1), low.argmax(axis=-1), -1)


def ols(X: np.ndarray, y: np.ndarray, mask: np.ndarray | None = None) -> RegressionFit:
    """Least squares via QR of one design (T x K) or a stack of them (G x T x K), with a rank check.

    ``mask``, shaped like ``y``, marks the sample rows; the rows outside it
    must be zero in ``X`` and ``y``.  A rank-deficient design raises
    RankDeficiencyError naming its first column linearly dependent on the
    preceding ones; in a stack, that regression gets NaN coefficients instead.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    rows, nparams = X.shape[-2:]
    if y.size != X[..., 0].size:
        raise EstimationError(f"design has {rows} rows but response has {y.size}")
    y = y.reshape(X.shape[:-1])
    mask = np.ones(y.shape, dtype=bool) if mask is None else mask
    nobs = np.count_nonzero(mask, axis=-1)
    if np.min(nobs) <= nparams:
        raise EstimationError(f"need more observations ({np.min(nobs)}) than parameters ({nparams})")
    q_mat, r_mat = np.linalg.qr(X)
    dependent = _dependent_column(r_mat, nobs)
    if X.ndim == 2 and dependent >= 0:
        raise RankDeficiencyError(int(dependent))
    # solve takes stacks, and on a triangular R it is back substitution; a deficient member solves against I.
    full = (dependent < 0)[..., None]
    qty = q_mat.swapaxes(-1, -2) @ y[..., None]
    coef = np.where(full, np.linalg.solve(np.where(full[..., None], r_mat, np.eye(nparams)), qty)[..., 0], np.nan)
    residuals = y - (X @ coef[..., None])[..., 0]
    rss = np.vecdot(residuals, residuals)
    tss = np.sum(np.where(mask, y - (np.sum(y, axis=-1) / nobs)[..., None], 0.0) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_squared = np.where(tss > 0, 1.0 - rss / tss, math.nan)
    if X.ndim == 2:
        nobs, rss, r_squared = int(nobs), float(rss), float(r_squared)
    return RegressionFit(coef, residuals, nobs, nparams, rss, r_squared, r_mat)


def inverse_gram(r: np.ndarray) -> np.ndarray:
    """(X'X)^-1 as R^-1 R^-T from the R factor of X = QR; NaN for a stack member whose R is singular."""
    singular = np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0, axis=-1)
    r_inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(r.shape[-1]), r))
    r_inv[singular] = np.nan
    return r_inv @ r_inv.swapaxes(-1, -2)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x with a x = b for a nonsingular square ``a``, so that every linear solve lives in this module."""
    return np.linalg.solve(a, b)


def hac_covariance(fit: RegressionFit, X: np.ndarray, lag: int | Sequence[int]) -> np.ndarray:
    """Newey-West: (T/(T-K)) (X'X)^-1 S (X'X)^-1, S the Bartlett-weighted sum of score autocovariances.

    The scores are x_t u_t and the weights w_l = 1 - l/(L+1), so lag 0 is HC1.
    Over a stack ``lag`` is one lag or one per member, and a member's weights
    are 0 beyond its own lag; one fit raises EstimationError for a lag that is
    not below its sample size, a stack leaves such members to the caller.
    """
    lag = np.asarray(lag)
    if np.min(lag) < 0:
        raise EstimationError(f"lag must be non-negative, got {np.min(lag)}")
    if np.ndim(fit.nobs) == 0 and lag >= fit.nobs:
        raise EstimationError(f"lag {lag} must be smaller than the sample size {fit.nobs}")
    scores = np.asarray(X, dtype=float) * fit.residuals[..., None]
    meat = scores.swapaxes(-1, -2) @ scores
    for l in range(1, min(int(np.max(lag)), scores.shape[-2] - 1) + 1):
        gamma = scores[..., l:, :].swapaxes(-1, -2) @ scores[..., :-l, :]
        meat += np.maximum(1.0 - l / (lag + 1.0), 0.0)[..., None, None] * (gamma + gamma.swapaxes(-1, -2))
    bread = inverse_gram(fit.r)
    factor = np.asarray(fit.nobs / (fit.nobs - fit.nparams))[..., None, None]
    return factor * bread @ meat @ bread


def wald_joint_test(fit: RegressionFit, cov: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """F-form robust Wald test that all K coefficients are zero, against F(K, T-K): ``(statistic, p_value)``.

    The statistic is the Wald statistic divided by K = ``fit.nparams``.
    Coefficients within 1e-10 max(max|b|, 1) of zero (say, a perfect fit with
    a degenerate covariance) give F = 0 and p = 1.  Over a stack of fits the
    results are arrays, and a singular V gives a NaN statistic and p-value
    where one fit raises EstimationError.
    """
    coef, q, df_den = fit.coefficients, fit.nparams, fit.nobs - fit.nparams
    size = np.abs(coef).max(axis=-1)
    satisfied = size <= 1e-10 * np.maximum(size, 1.0)
    with np.errstate(invalid="ignore"):  # NaN for a rank-deficient member of a stack
        degenerate = np.linalg.slogdet(cov)[0] == 0
    singular = degenerate & ~satisfied
    if np.ndim(singular) == 0 and singular:
        raise EstimationError("V is singular")
    solved = np.linalg.solve(np.where(degenerate[..., None, None], np.eye(q), cov), coef[..., None])[..., 0]
    wald = np.where(singular, math.nan, np.vecdot(coef, solved))
    statistic = np.where(satisfied, 0.0, np.maximum(wald, 0.0) / q)[()]  # [()]: a 0-d result as a scalar
    p_value = np.where(satisfied, 1.0, f_sf(statistic, q, df_den))[()]
    return statistic, p_value


def efficiency_regression(
    actual: np.ndarray,
    prediction: np.ndarray,
    extra_regressors: Sequence[np.ndarray] = (),
) -> tuple[RegressionFit, np.ndarray]:
    """Regress (actual - prediction) on intercept, prediction, and extra columns: ``(fit, design)``.

    The inputs are aligned on one run of quarters in ascending order, NaN
    where a quarter is absent; 2-D inputs fit a stack, one run per row.  The
    sample is the quarters where every input is present, moved to the front
    of its row of the design (zero after it), and must contain at least K+8
    quarters, where K counts the regression parameters.
    """
    nparams = 2 + len(extra_regressors)
    columns = (actual, prediction, *extra_regressors)
    sample = np.logical_and.reduce([~np.isnan(c) for c in columns])
    nobs = np.count_nonzero(sample, axis=-1)
    required = nparams + 8
    if np.min(nobs) < required:
        raise EstimationError(f"insufficient overlap: need {required} quarters, have {np.min(nobs)}")
    order = np.argsort(~sample, axis=-1, kind="stable")[..., :np.max(nobs)]
    mask = np.take_along_axis(sample, order, axis=-1)
    actual, pred, *extra = (np.where(mask, np.take_along_axis(c, order, axis=-1), 0.0) for c in columns)
    X = np.stack([mask.astype(float), pred, *extra], axis=-1)
    return ols(X, actual - pred, mask), X


def test_battery_aggregate(
    baselines: Mapping[tuple[ReleaseKind, str], BaselineSeries],
    actuals: Mapping[ReleaseKind, QuarterSeries],
    spf: SpfNowcasts,
    ar_forecasts: Mapping[ReleaseKind, QuarterSeries],
    hac_lag: int | None = None,
) -> SimpleNamespace:
    """Unbiasedness/efficiency p-values and RMSE per (release, baseline method), as aligned columns.

    Row i of each column is the i-th entry of ``baselines``, a row of one
    grid over the baselines' quarters, and one stacked fit per test as in the
    individual battery.  HAC covariances throughout, with each row's lag taken
    from its own sample unless ``hac_lag`` fixes it; the information set pairs
    the method-matched SPF nowcast with the recursive AR forecast.  The
    columns are ``unbiasedness_p``, ``efficiency_p`` and ``rmse``, NaN where
    absent, and ``errors``, a list of str: each row's failures joined by
    "; ".  A failure leaves the other rows intact.
    """
    quarters = distinct(np.concatenate([np.empty(0, np.int64), *(b.quarter_index() for b in baselines.values())]))
    actual, prediction, spf_matched, ar = grid = np.full((4, len(baselines), quarters.size), np.nan)
    for row, ((release, method), base) in enumerate(baselines.items()):
        grid[:, row] = (actuals[release].at(quarters), base.at(quarters),
                        spf.for_method(method).at(quarters), ar_forecasts[release].at(quarters))

    def lags(nobs: np.ndarray) -> list[int]:
        return [newey_west_auto_lag(n) if hac_lag is None else hac_lag for n in nobs.tolist()]

    sample = ~np.isnan(actual) & ~np.isnan(prediction)
    common = np.count_nonzero(sample, axis=1)
    rmses = np.full(common.size, np.nan)
    rmses[common > 0] = rmse((actual - prediction)[sample], np.append(0, np.cumsum(common[common > 0])))
    _, p_unb, unb_notes = _stacked_zero_tests(
        "unbiasedness", common >= MIN_OBS_UNBIASEDNESS, lags(common), actual, prediction)
    sample &= ~np.isnan(spf_matched) & ~np.isnan(ar)
    nobs = np.count_nonzero(sample, axis=1)
    _, p_eff, eff_notes = _stacked_zero_tests(
        "efficiency", nobs >= MIN_OBS_EFFICIENCY, lags(nobs), actual, prediction, spf_matched, ar)
    errors = ["; ".join(filter(None, ("" if n else "rmse: prediction and actuals share no quarters", *notes)))
              for n, *notes in zip(common.tolist(), unb_notes, eff_notes)]
    return SimpleNamespace(unbiasedness_p=p_unb, efficiency_p=p_eff, rmse=rmses, errors=errors)


def _stacked_zero_tests(name: str, eligible: np.ndarray, lag: int | Sequence[int], actual: np.ndarray,
                        prediction: np.ndarray, *extra: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Newey-West tests that every coefficient is zero, fitting the eligible rows as one stack.

    ``lag`` is one lag or one per row; lag 0 is HC1.  Returns each row's
    coefficients and p-value (NaN where there is none) and note.
    """
    coefficients = np.full((eligible.size, 2 + len(extra)), np.nan)
    p_value = np.full(eligible.size, np.nan)
    notes = [f"{name}: too few observations"] * eligible.size
    if eligible.any():
        fit, design = efficiency_regression(actual[eligible], prediction[eligible], [x[eligible] for x in extra])
        lag = np.broadcast_to(lag, eligible.shape)[eligible]
        coefficients[eligible] = fit.coefficients
        _, tested = wald_joint_test(fit, hac_covariance(fit, design, lag))
        p_value[eligible] = np.where(lag < fit.nobs, tested, np.nan)
        for row, column, l, n, p in zip(np.flatnonzero(eligible).tolist(), _dependent_column(fit.r, fit.nobs).tolist(),
                                        lag.tolist(), fit.nobs.tolist(), p_value[eligible].tolist()):
            notes[row] = (f"{name}: {RankDeficiencyError(column)}" if column >= 0
                          else f"{name}: lag {l} must be smaller than the sample size {n}" if l >= n
                          else f"{name}: V is singular" if math.isnan(p) else "")
    return coefficients, p_value, notes


DETAIL_COLUMNS = ("release", "economist", "nobs", "alpha_hat", "beta_hat", "p_unbiased", "p_efficient")
SHARE_COLUMNS = ("release", "threshold", "n_qualifying", "n_tested_unbiased", "share_unbiased", "n_excluded_unbiased",
                 "n_tested_efficient", "share_efficient", "n_excluded_efficient")


def _joined(parts: list[tuple], names: tuple[str, ...], **more) -> SimpleNamespace:
    """The named columns of the parts, each joined part after part, plus the columns ``more``."""
    return SimpleNamespace(**{name: np.concatenate(column) for name, column in zip(names, zip(*parts))}, **more)


def test_battery_individual(
    panel: ForecastPanel,
    actuals: Mapping[ReleaseKind, QuarterSeries],
    spf: SpfNowcasts,
    ar_forecasts: Mapping[ReleaseKind, QuarterSeries],
    participation: Mapping[ReleaseKind, np.ndarray],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    alpha: float = 0.05,
) -> tuple[SimpleNamespace, SimpleNamespace]:
    """Per-forecaster unbiasedness/efficiency tests and not-rejected shares, as two tables of aligned columns.

    Shares count forecasters whose test does not reject at level ``alpha``
    among those with enough observations; the rest are reported as excluded.
    HC1 covariance throughout; the efficiency information set is the median
    SPF nowcast and the release's AR forecast.  ``participation`` holds each
    release's ``participation_share``, indexed by the economist codes of
    ``panel``, which must be clean: one row per (economist, quarter, release).
    The details have one row per forecaster of each release with forecasts,
    in (release, economist code) order, and the ``DETAIL_COLUMNS`` (NaN
    where a test is absent) plus ``note``, a list of str.  The shares have one
    row per (release, threshold) and the ``SHARE_COLUMNS`` (a share is NaN
    where no forecaster is tested).
    """
    # A first part of no rows gives each column its type, also where no release has forecasts.
    ints, floats = np.empty(0, np.int64), np.empty(0)
    details, notes = [(ints,) * 3 + (floats,) * 4], []
    shares = [(ints, floats, ints) + (ints, floats, ints) * 2]
    for release in sorted(actuals):
        rows = panel.for_release(release)
        codes, bounds = economist_runs(rows.economist)
        if not codes.size:
            continue
        # One row per economist: its quarters in ascending order, then NaN padding.
        sizes = np.diff(bounds)
        block = np.repeat(np.arange(codes.size), sizes)
        quarter = rows.quarter
        actual, prediction, spf_median, ar = grid = np.full((4, codes.size, sizes.max()), np.nan)
        grid[:, block, np.arange(len(rows)) - bounds[block]] = (
            actuals[release].at(quarter), rows.value, spf.median.at(quarter), ar_forecasts[release].at(quarter))
        has_actual = ~np.isnan(actual)
        # Eligibility counts each regression's own sample, so no member of a stack is short of it.
        sample = has_actual & ~np.isnan(prediction)
        unb_coef, p_unb, unb_notes = _stacked_zero_tests(
            "unbiasedness", np.count_nonzero(sample, axis=1) >= MIN_OBS_UNBIASEDNESS, 0, actual, prediction)
        sample &= ~np.isnan(spf_median) & ~np.isnan(ar)
        _, p_eff, eff_notes = _stacked_zero_tests(
            "efficiency", np.count_nonzero(sample, axis=1) >= MIN_OBS_EFFICIENCY, 0, actual, prediction, spf_median, ar)
        details.append((np.full(codes.size, release), codes, np.count_nonzero(has_actual, axis=1), *unb_coef.T,
                        p_unb, p_eff))
        notes += ["; ".join(filter(None, pair)) for pair in zip(unb_notes, eff_notes)]
        share = participation[release][codes]
        qualifying = np.array([passes_threshold(share, t) for t in thresholds], dtype=bool).reshape(-1, codes.size)
        n_qualifying = np.count_nonzero(qualifying, axis=1)
        columns = [np.full(n_qualifying.size, release), np.asarray(thresholds, dtype=float), n_qualifying]
        for p in (p_unb, p_eff):
            tested = qualifying & ~np.isnan(p)
            n_tested, n_passed = np.count_nonzero(tested, axis=1), np.count_nonzero(tested & (p >= alpha), axis=1)
            columns += [n_tested, np.divide(n_passed, n_tested, out=np.full(n_tested.size, np.nan), where=n_tested > 0),
                        n_qualifying - n_tested]
        shares.append(columns)
    return _joined(details, DETAIL_COLUMNS, note=notes), _joined(shares, SHARE_COLUMNS)
