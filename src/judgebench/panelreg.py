"""Judgment-persistence panel regressions.

Builds own-lag and cross-release regression datasets from the judgments and
estimates pooled, entity fixed-effects, and entity-plus-time fixed-effects
specifications on the unbalanced panel, with standard errors clustered on
forecasters.  Two-way effects partial the quarter effects out of the
entity-demeaned data through a reduced system in those effects (Frisch-Waugh-
Lovell), which is exact for unbalanced panels and forms no dummy matrix.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .errors import EstimationError, RankDeficiencyError
from .judgment import JudgmentPanel
from .linreg import inverse_gram, ols, solve
from .panel import cell_key, economist_runs
from .quarters import ReleaseKind
from .tails import t_test_p_value

SPECS = ("pooled", "fe", "fe_te")
REGRESSOR_KINDS = ("own_lag", "prior_release")
STAR_LEVELS = (0.10, 0.05, 0.01)
EPS = np.finfo(float).eps  # a sum of squares at most nobs * EPS of its scale counts as zero


class PersistenceData:
    """Aligned columns of one persistence regression, rows sorted by (economist, quarter)."""

    def __init__(self, economist: np.ndarray, quarter: np.ndarray, response: np.ndarray, regressor: np.ndarray):
        self.economist, self.quarter = economist, quarter  # economist codes, quarter indexes of the responses
        self.response, self.regressor = response, regressor

    def __len__(self) -> int:
        return self.response.size


def _sorted_columns(jp: JudgmentPanel | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(economist, quarter, judgment) columns sorted by (economist, quarter); empty for None."""
    if jp is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    rows = jp.panel.for_release(jp.release)  # all of jp.panel; raises ValueError unless in canonical order
    return rows.economist, rows.quarter, jp.value


def build_persistence_dataset(
    judgments: Mapping[ReleaseKind, JudgmentPanel], release: ReleaseKind, regressor_kind: str
) -> PersistenceData:
    """Pair each judgment of ``release`` with its persistence regressor.

    ``judgments`` holds each release's judgments, extracted from one panel so
    that they share economist codes.  own_lag: the same release's judgment in
    the immediately preceding quarter (gaps drop the observation, they never
    chain).  prior_release: the previous release's judgment in the same
    quarter; for the first release this becomes the third release's judgment
    of the preceding quarter.
    """
    if regressor_kind not in REGRESSOR_KINDS:
        raise ValueError(f"unknown regressor kind {regressor_kind!r}")
    target = judgments.get(release)
    econ, quarter, response = _sorted_columns(target)
    if regressor_kind == "own_lag":
        lagged = np.flatnonzero((econ[1:] == econ[:-1]) & (quarter[1:] == quarter[:-1] + 1))
        keep, regressor = lagged + 1, response[lagged]
    else:
        source, shift = (ReleaseKind.THIRD, 1) if release == ReleaseKind.FIRST else (release.prior, 0)
        prior = judgments.get(source)
        if prior is not None and target is not None and prior.panel.economist_ids != target.panel.economist_ids:
            raise ValueError("judgments of different releases must come from one panel")
        s_econ, s_quarter, s_value = _sorted_columns(prior)
        s_key, key = cell_key(s_econ, s_quarter + shift), cell_key(econ, quarter)  # s_key ascends
        at = np.searchsorted(s_key, key)
        keep = np.flatnonzero(at < s_key.size)
        keep = keep[s_key[at[keep]] == key[keep]]
        regressor = s_value[at[keep]]
    return PersistenceData(econ[keep], quarter[keep], response[keep], regressor)


def clustered_covariance(
    X: np.ndarray, residuals: np.ndarray, codes: np.ndarray, n_clusters: int, r: np.ndarray
) -> np.ndarray:
    """Cluster-robust sandwich with factor G/(G-1) * (N-1)/(N-K), the bread from R, X's QR R factor.

    ``codes`` holds each row's cluster, 0..G-1 with G = ``n_clusters``.
    Scores that cancel within every cluster leave only rounding noise in the
    meat, so a diagonal entry of the meat within N * eps of the unclustered
    one (the sum of the squared scores) counts as zero, with its row and
    column.
    """
    nobs, nparams = X.shape
    if n_clusters < 2:
        raise EstimationError("clustered covariance needs at least 2 clusters")
    scores = X * residuals[:, None]
    # bincount adds each cluster's scores in row order, as np.add.at does.
    cluster_scores = np.column_stack([np.bincount(codes, weights=s, minlength=n_clusters) for s in scores.T])
    meat = cluster_scores.T @ cluster_scores
    noise = np.diagonal(meat) <= nobs * EPS * np.einsum("ij,ij->j", scores, scores)
    meat[noise] = 0.0
    meat[:, noise] = 0.0
    bread = inverse_gram(r)
    factor = (n_clusters / (n_clusters - 1)) * ((nobs - 1) / (nobs - nparams))
    return factor * bread @ meat @ bread


def _demean_by(values: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Subtract group means; ``counts`` holds each group's size."""
    sums = np.bincount(inverse, weights=values, minlength=counts.size)
    return values - (sums / counts)[inverse]


def _partial_quarter_effects(within: np.ndarray, econ: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """Remove quarter effects from columns already demeaned by economist.

    ``econ`` and ``quarter`` are codes 0..G-1 and 0..T-1.  With C the G x T
    counts, D the quarter dummies and M_E the economist demeaning, the quarter
    effects of a column v solve (diag(n_t) - C' diag(1/n_g) C) gamma = D' M_E v
    with the first quarter dropped, and the result is M_E v - M_E D gamma.
    That system is nonsingular exactly when the economist-quarter graph is
    connected (Abowd, Creecy and Kramarz 2002), which is checked first.
    """
    n_econ, n_quarters = econ.max() + 1, quarter.max() + 1
    counts = np.bincount(econ * n_quarters + quarter, minlength=n_econ * n_quarters).reshape(n_econ, n_quarters)
    linked = counts > 0
    reached = linked[0]  # the quarters reachable from economist 0
    while not reached.all():
        grown = linked[linked[:, reached].any(axis=1)].any(axis=0)
        if np.array_equal(grown, reached):
            raise EstimationError("fe_te: design is rank deficient")
        reached = grown
    shares = counts / counts.sum(axis=1, keepdims=True)
    system = (np.diag(counts.sum(axis=0)) - counts.T @ shares)[1:, 1:]
    rhs = np.column_stack([np.bincount(quarter, weights=v, minlength=n_quarters)[1:] for v in within.T])
    gamma = np.zeros((n_quarters, within.shape[1]))
    gamma[1:] = solve(system, rhs)
    return within - gamma[quarter] + (shares @ gamma)[econ]


def fe_estimate(datasets: Sequence[PersistenceData], spec: str) -> SimpleNamespace:
    """Estimate the single-regressor persistence equation under one specification on each dataset.

    pooled: OLS with intercept.  fe: within transformation by economist
    (singleton economists dropped).  fe_te: fe with the T quarter effects
    partialled out (``_partial_quarter_effects``); its clustered SE still
    counts K = 1 + (T-1).  Standard errors are clustered on economists, each
    a run of rows, since the rows are grouped by economist; an exact fit has
    SE 0.  Each dataset is fitted on its own.

    Returns aligned columns, entry i for ``datasets[i]``: ``beta``,
    ``se_clustered``, ``n_obs``, ``n_forecasters``, ``r_squared`` (within for
    the FE specs, ordinary for pooled), ``r_squared_overall`` (the squared
    correlation of the raw response and beta * x), ``singletons_dropped`` and
    ``error``, a list of str: "" where the fit succeeded, else why it failed,
    with NaN statistics and zero counts.
    """
    if spec not in SPECS:
        raise ValueError(f"unknown spec {spec!r}")
    values = np.full((4, len(datasets)), np.nan)  # beta, se_clustered, r_squared, r_squared_overall
    counts = np.zeros((3, len(datasets)), dtype=np.int64)  # n_obs, n_forecasters, singletons_dropped
    error = [""] * len(datasets)
    for i, data in enumerate(datasets):
        try:
            values[:, i], counts[:, i] = _fit(data, spec)
        except EstimationError as exc:
            error[i] = str(exc)
    beta, se, r_squared, r_squared_overall = values
    n_obs, n_forecasters, singletons_dropped = counts
    return SimpleNamespace(beta=beta, se_clustered=se, n_obs=n_obs, n_forecasters=n_forecasters, r_squared=r_squared,
                           r_squared_overall=r_squared_overall, singletons_dropped=singletons_dropped, error=error)


def _fit(data: PersistenceData, spec: str) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """One dataset's (beta, SE, R^2, overall R^2) and (n_obs, n_forecasters, singletons_dropped)."""
    if not len(data):
        raise EstimationError("empty persistence dataset")
    y, x, quarters = data.response, data.regressor, data.quarter

    # The rows are grouped by economist, so its runs are the clusters.
    counts = np.diff(economist_runs(data.economist)[1])
    singletons_dropped = 0
    if spec in ("fe", "fe_te"):
        keep = np.repeat(counts >= 2, counts)
        singletons_dropped = int(np.sum(counts < 2))
        if not np.any(keep):
            raise EstimationError("no economist has 2 or more observations")
        y, x, quarters = y[keep], x[keep], quarters[keep]
        counts = counts[counts >= 2]
    n_clusters = counts.size
    inverse = np.repeat(np.arange(n_clusters), counts)
    nobs = y.size
    if spec != "pooled" and n_clusters < 2:
        raise EstimationError("all observations come from a single economist")

    if spec == "pooled":
        X = np.column_stack([np.ones(nobs), x])
        y_reg = y
    else:
        X = _demean_by(x, inverse, counts)[:, None]
        y_reg = _demean_by(y, inverse, counts)
    nparams = X.shape[1]
    if spec == "fe_te":
        quarter_codes, quarter = np.unique(quarters, return_inverse=True)
        nparams += quarter_codes.size - 1
    if nobs - nparams < 1:
        raise EstimationError(
            f"not enough residual degrees of freedom: {nobs} obs, {nparams} parameters"
        )

    y_fit = y_reg
    if spec == "fe_te":
        y_fit, x_part = _partial_quarter_effects(np.column_stack([y_reg, X[:, 0]]), inverse, quarter).T
        # By FWL the partialled regressor alone gives beta, the residuals and beta's sandwich row.
        if x_part @ x_part <= nobs * EPS * (X[:, 0] @ X[:, 0]):
            raise EstimationError(f"{spec}: design is rank deficient")
        X = x_part[:, None]
    try:
        fit = ols(X, y_fit)
    except RankDeficiencyError as exc:
        raise EstimationError(f"{spec}: design is rank deficient") from exc
    beta, residuals = float(fit.coefficients[-1]), fit.residuals
    fitted = (y_reg - y_fit) + X @ fit.coefficients  # y_reg - residuals, free of cancellation

    if 1.0 - fit.r_squared <= nobs * EPS:  # an exact fit: the residuals are rounding noise
        se = 0.0
    else:
        # The sandwich counts only X's columns in K; the partialled quarter effects count too.
        cov = clustered_covariance(X, residuals, inverse, n_clusters, fit.r)
        se = math.sqrt(max(cov[-1, -1], 0.0)) * math.sqrt((nobs - X.shape[1]) / (nobs - nparams))

    # R^2 convention: ordinary for pooled, within for FE specs.
    r_squared = fit.r_squared if spec == "pooled" else _squared_correlation(fitted, y_reg)
    return (beta, se, r_squared, _squared_correlation(beta * x, y)), (nobs, n_clusters, singletons_dropped)


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """The squared correlation of ``a`` and ``b``: NaN where either is constant, as ``np.corrcoef`` gives it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(a, b)[0, 1] ** 2)


def significance_stars(p_value: float) -> str:
    return "*" * sum(p_value < level for level in STAR_LEVELS)


def persistence_battery(judgments: Mapping[ReleaseKind, JudgmentPanel]) -> tuple[SimpleNamespace, np.ndarray]:
    """Six estimation cells per release: {own-lag, cross-release} x {pooled, FE, FE+TE}.

    ``judgments`` holds each release's judgments, extracted from one panel.
    Returns the cells and the broken-chain counts.  The cells are aligned
    columns in table order (release, then regressor, then spec): ``release``
    (its number), ``regressor``, ``spec``, the columns of ``fe_estimate``,
    ``p_value`` (NaN where the fit failed) and ``stars``, a list of str.  A
    cell that cannot be fitted carries its error; the battery always
    completes.  Significance is the two-sided ``t_test_p_value`` of beta = 0
    with G-1 degrees of freedom, G the number of forecasters; a zero SE gets
    no stars.  The broken-chain counts, one per (release, regressor) in the
    same order, are the release's judgments that its regression leaves out.
    """
    keys = [(release, kind) for release in ReleaseKind for kind in REGRESSOR_KINDS]
    datasets = [build_persistence_dataset(judgments, release, kind) for release, kind in keys]
    broken = np.array([(len(judgments[release]) if release in judgments else 0) - len(data)
                       for (release, _), data in zip(keys, datasets)])
    fits = [fe_estimate(datasets, spec) for spec in SPECS]
    # Cell len(SPECS) * d + s is entry d of spec s's fits.
    cells = SimpleNamespace(**{name: np.column_stack([getattr(fit, name) for fit in fits]).ravel()
                               for name in vars(fits[0]) if name != "error"})
    cells.error = [error for row in zip(*(fit.error for fit in fits)) for error in row]
    cells.release = np.repeat([release.value for release, _ in keys], len(SPECS))
    cells.regressor = np.repeat([kind for _, kind in keys], len(SPECS))
    cells.spec = np.tile(SPECS, len(keys))
    fitted = np.array([not error for error in cells.error])
    cells.p_value = np.full(fitted.size, np.nan)
    cells.p_value[fitted] = t_test_p_value(cells.beta[fitted], 0.0, cells.se_clustered[fitted],
                                           cells.n_forecasters[fitted] - 1)
    cells.stars = [significance_stars(p) if se > 0 else "" for p, se in
                   zip(cells.p_value.tolist(), cells.se_clustered.tolist())]
    return cells, broken
