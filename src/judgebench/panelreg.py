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
from typing import Mapping, NamedTuple

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


class PanelFitResult(NamedTuple):
    spec: str
    beta: float
    se_clustered: float
    n_obs: int
    n_forecasters: int
    r_squared: float          # within-R^2 for FE specs, ordinary R^2 for pooled
    r_squared_overall: float  # squared correlation of raw response and beta*x
    singletons_dropped: int = 0


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


def fe_estimate(data: PersistenceData, spec: str) -> PanelFitResult:
    """Estimate the single-regressor persistence equation under one specification.

    pooled: OLS with intercept.  fe: within transformation by economist
    (singleton economists dropped).  fe_te: fe with the T quarter effects
    partialled out (``_partial_quarter_effects``); its clustered SE still
    counts K = 1 + (T-1).  Standard errors are clustered on economists, each
    a run of rows, since the rows are grouped by economist; an exact fit has
    SE 0.
    """
    if spec not in SPECS:
        raise ValueError(f"unknown spec {spec!r}")
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
    if spec == "pooled":
        r_squared = fit.r_squared
    else:
        sd_f, sd_y = np.std(fitted), np.std(y_reg)
        r_squared = float(np.corrcoef(fitted, y_reg)[0, 1] ** 2) if sd_f > 0 and sd_y > 0 else math.nan

    overall_fit = beta * x
    sd_o, sd_raw = np.std(overall_fit), np.std(y)
    r2_overall = float(np.corrcoef(overall_fit, y)[0, 1] ** 2) if sd_o > 0 and sd_raw > 0 else math.nan

    return PanelFitResult(
        spec=spec,
        beta=beta,
        se_clustered=se,
        n_obs=int(nobs),
        n_forecasters=int(n_clusters),
        r_squared=r_squared,
        r_squared_overall=r2_overall,
        singletons_dropped=singletons_dropped,
    )


def significance_stars(p_value: float) -> str:
    return "*" * sum(p_value < level for level in STAR_LEVELS)


class PersistenceCell(NamedTuple):
    release: ReleaseKind
    regressor_kind: str
    spec: str
    result: PanelFitResult | None
    p_value: float | None
    stars: str
    error: str | None = None


class PersistenceReport:
    def __init__(self):
        self.cells: list[PersistenceCell] = []
        self.broken_chains: dict[tuple[ReleaseKind, str], int] = {}

    def for_release(self, release: ReleaseKind) -> list[PersistenceCell]:
        return [c for c in self.cells if c.release == release]


def persistence_battery(judgments: Mapping[ReleaseKind, JudgmentPanel]) -> PersistenceReport:
    """Six estimation cells per release: {own-lag, cross-release} x {pooled, FE, FE+TE}.

    ``judgments`` holds each release's judgments, extracted from one panel.
    Per-cell failures are reported inline; the battery always completes.
    Significance is the two-sided ``t_test_p_value`` of beta = 0 with G-1
    degrees of freedom, G the number of forecasters; a zero SE gets no stars.
    """
    report = PersistenceReport()
    fits: list[tuple[ReleaseKind, str, str, PanelFitResult | str]] = []
    for release in (ReleaseKind.FIRST, ReleaseKind.SECOND, ReleaseKind.THIRD):
        n_responses = len(judgments[release]) if release in judgments else 0
        for kind in REGRESSOR_KINDS:
            data = build_persistence_dataset(judgments, release, kind)
            report.broken_chains[(release, kind)] = n_responses - len(data)
            for spec in SPECS:
                try:
                    fits.append((release, kind, spec, fe_estimate(data, spec)))
                except EstimationError as exc:
                    fits.append((release, kind, spec, str(exc)))
    fitted = [fit for *_, fit in fits if not isinstance(fit, str)]
    p_values = iter(t_test_p_value([fit.beta for fit in fitted], 0.0, [fit.se_clustered for fit in fitted],
                                   [fit.n_forecasters - 1 for fit in fitted]).tolist())
    for release, kind, spec, fit in fits:
        if isinstance(fit, str):
            report.cells.append(PersistenceCell(release, kind, spec, None, None, "", fit))
        else:
            p = next(p_values)
            stars = significance_stars(p) if fit.se_clustered > 0 else ""
            report.cells.append(PersistenceCell(release, kind, spec, fit, p, stars))
    return report
