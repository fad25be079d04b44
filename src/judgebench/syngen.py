"""Synthetic-world generator used to validate the whole pipeline.

Simulates an AR(1) actual process with noisy revisions, a latent common
baseline, and forecaster judgments with controlled own-lag persistence and
cross-release carryover, then packages everything as the standard panel data
structures.  Separate sub-streams of one seed feed each purpose, so adding
forecasters does not change the actual series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import EstimationError
from .judgment import JudgmentPanel, baseline, extract_judgments
from .panel import ActualSeries, ForecastPanel, QuarterSeries, SpfNowcasts, factorize
from .panelreg import build_persistence_dataset, fe_estimate
from .quarters import Quarter, ReleaseKind
from .tails import t_quantile


@dataclass(frozen=True)
class SynthConfig:
    n_forecasters: int = 50
    n_quarters: int = 92
    start: Quarter = Quarter(2000, 1)
    seed: int = 12345
    # Actual output growth: AR(1) with noisy release revisions.
    actual_intercept: float = 0.5
    actual_ar: float = 0.3
    actual_sd: float = 2.0
    revision_sd: float = 0.3
    # Latent common baseline = actual + common noise.
    baseline_noise_sd: float = 0.1
    # Judgment law: j = rho_i * lag(j) + kappa * prior-release j + innovation.
    rho_own: float = 0.1
    rho_own_sd: float = 0.0  # persistence heterogeneity across forecasters
    kappa: float = 0.0
    judgment_sd: float = 0.2
    p_neutral: float = 0.0
    participation_low: float = 1.0
    participation_high: float = 1.0
    grid: float = 0.1

    def __post_init__(self):
        if abs(self.rho_own) >= 1:
            raise ValueError("own-lag persistence must satisfy |rho| < 1")
        for name in ("actual_sd", "revision_sd", "baseline_noise_sd", "judgment_sd", "rho_own_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.p_neutral <= 1:
            raise ValueError("p_neutral must be in [0, 1]")
        if not 0 <= self.participation_low <= self.participation_high <= 1:
            raise ValueError("participation range must satisfy 0 <= low <= high <= 1")


@dataclass(frozen=True)
class SynthTruth:
    quarters: list[Quarter]
    economists: list[str]
    actuals: np.ndarray     # (3, T)
    baselines: np.ndarray   # (3, T) latent common baselines
    judgments: np.ndarray   # (N, T, 3) latent judgments
    rho_i: np.ndarray       # (N,) per-forecaster own-lag persistence


@dataclass(frozen=True)
class SynthWorld:
    config: SynthConfig
    seed: int
    actuals: Mapping[ReleaseKind, ActualSeries]
    panel: ForecastPanel
    spf: SpfNowcasts
    truth: SynthTruth


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def simulate_world(config: SynthConfig, seed: int | None = None) -> SynthWorld:
    """Deterministically generate a synthetic world from (config, seed)."""
    seed = config.seed if seed is None else seed
    n, t = config.n_forecasters, config.n_quarters
    quarters = [config.start.shifted(i) for i in range(t)]

    # Actual process with burn-in, then revision chains.
    rng_actual = _rng(seed, 0)
    burn = 50
    eps = rng_actual.normal(0.0, config.actual_sd, size=t + burn)
    path = np.empty(t + burn)
    level = config.actual_intercept / (1.0 - config.actual_ar)
    path[0] = level + eps[0]
    for i in range(1, t + burn):
        path[i] = config.actual_intercept + config.actual_ar * path[i - 1] + eps[i]
    actuals = np.empty((3, t))
    actuals[0] = path[burn:]
    rng_rev = _rng(seed, 1)
    actuals[1] = actuals[0] + rng_rev.normal(0.0, config.revision_sd, size=t)
    actuals[2] = actuals[1] + rng_rev.normal(0.0, config.revision_sd, size=t)

    rng_base = _rng(seed, 2)
    baselines = actuals + rng_base.normal(0.0, config.baseline_noise_sd, size=(3, t))

    # Judgments: own-lag recursion per release with cross-release carryover.
    rng_judg = _rng(seed, 3)
    rho_i = np.full(n, config.rho_own)
    if config.rho_own_sd > 0:
        rho_i = np.clip(
            rng_judg.normal(config.rho_own, config.rho_own_sd, size=n), -0.95, 0.95
        )
    eta = rng_judg.normal(0.0, config.judgment_sd, size=(n, t, 3))
    rng_neutral = _rng(seed, 4)
    neutral = rng_neutral.random(size=(n, t, 3)) < config.p_neutral
    judgments = np.zeros((n, t, 3))
    for i_t in range(t):
        for k in range(3):
            j = eta[:, i_t, k].copy()
            if i_t > 0:
                j += rho_i * judgments[:, i_t - 1, k]
            if k > 0:
                j += config.kappa * judgments[:, i_t, k - 1]
            j[neutral[:, i_t, k]] = 0.0
            judgments[:, i_t, k] = j

    rng_part = _rng(seed, 5)
    rates = rng_part.uniform(config.participation_low, config.participation_high, size=n)
    mask = rng_part.random(size=(n, t)) < rates[:, None]

    economists = [f"E{i:04d}" for i in range(n)]
    forecasts = baselines.T[None, :, :] + judgments  # (N, T, 3)
    if config.grid > 0:
        forecasts = np.round(forecasts / config.grid) * config.grid
    # One row per (release, economist, quarter) with participation, in that (canonical) order.
    who, when = np.nonzero(mask)
    economist_ids, economist = factorize(economists)
    firm_ids, firm = factorize([f"F{i % max(n // 2, 1):04d}" for i in range(n)])
    panel = ForecastPanel(
        economist_ids,
        firm_ids,
        np.tile(economist[who], 3),
        np.tile(firm[who], 3),
        np.tile(config.start.index + when, 3),
        np.repeat(np.arange(1, 4, dtype=np.int64), who.size),
        forecasts[who, when].T.ravel(),
        np.full(3 * who.size, -1, dtype=np.int64),
    )

    rng_spf = _rng(seed, 6)
    spf_median = actuals[0] + rng_spf.normal(0.0, 0.5, size=t)
    spf_mean = spf_median + rng_spf.normal(0.0, 0.1, size=t)
    start = config.start.index
    spf = SpfNowcasts(QuarterSeries(start, spf_median), QuarterSeries(start, spf_mean))
    actual_series = {
        ReleaseKind(k + 1): ActualSeries(start=start, values=actuals[k], release=ReleaseKind(k + 1))
        for k in range(3)
    }
    truth = SynthTruth(quarters, economists, actuals, baselines, judgments, rho_i)
    return SynthWorld(config, seed, actual_series, panel, spf, truth)


def extract_world_judgments(world: SynthWorld, release: ReleaseKind, method: str = "median") -> JudgmentPanel:
    """Median-baseline judgment extraction on the simulated panel."""
    base = baseline(world.panel, release, method)
    return extract_judgments(world.panel, base, grid=world.config.grid)


@dataclass
class RecoverySummary:
    config: SynthConfig
    replications: int
    n_completed: int = 0
    n_failed: int = 0
    mean_beta: float = math.nan
    sd_beta: float = math.nan
    ci_coverage: float = math.nan
    betas: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _one_replication(config: SynthConfig, seed: int):
    world = simulate_world(config, seed=seed)
    judgments = {ReleaseKind.FIRST: extract_world_judgments(world, ReleaseKind.FIRST)}
    data = build_persistence_dataset(judgments, ReleaseKind.FIRST, "own_lag")
    return fe_estimate(data, "fe")


def recovery_experiment(
    config: SynthConfig,
    replications: int,
    base_seed: int | None = None,
) -> RecoverySummary:
    """Monte-Carlo check of the fixed-effects persistence estimator.

    Each replication simulates a world, extracts judgments against the
    empirical median baseline, estimates the own-lag FE specification for the
    first release, and checks whether the 95% clustered CI covers rho_own.
    Replications use seeds base_seed + index, so results are deterministic.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    base_seed = config.seed if base_seed is None else base_seed
    summary = RecoverySummary(config=config, replications=replications)
    ses: list[float] = []
    dfs: list[int] = []
    for rep in range(replications):
        try:
            result = _one_replication(config, base_seed + rep)
        except EstimationError as exc:
            summary.n_failed += 1
            summary.failures.append(f"replication {rep}: {exc}")
            continue
        summary.betas.append(result.beta)
        ses.append(result.se_clustered)
        dfs.append(result.n_forecasters - 1)
    summary.n_completed = len(summary.betas)
    if summary.n_completed:
        betas = np.asarray(summary.betas)
        half = t_quantile(0.975, dfs) * np.asarray(ses)
        covered = (betas - half <= config.rho_own) & (config.rho_own <= betas + half)
        summary.mean_beta = float(betas.mean())
        summary.sd_beta = float(betas.std(ddof=1)) if betas.size > 1 else 0.0
        summary.ci_coverage = int(covered.sum()) / summary.n_completed
    return summary
