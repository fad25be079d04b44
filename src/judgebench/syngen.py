"""Synthetic-world generator used to validate the whole pipeline.

Simulates an AR(1) actual process with noisy revisions, a latent common
baseline, and forecaster judgments with controlled own-lag persistence and
cross-release carryover, then packages everything as the standard panel data
structures.  Separate sub-streams of one seed feed each purpose, so adding
forecasters does not change the actual series.  One core simulates a block
of seeds in one pass; the recovery experiment simulates its replications in
blocks and reads only their first release.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .judgment import DEFAULT_GRID, baseline, extract_judgments, grid_round
from .panel import ForecastPanel, QuarterSeries, SpfNowcasts, factorize
from .panelreg import build_persistence_dataset, fe_estimate
from .quarters import ReleaseKind, parse_quarter
from .tails import t_test_p_value

BLOCK_CELLS = 200_000  # simulated cells (replications x economists x quarters x 3) per recovery block
START = parse_quarter("2000Q1")  # the first quarter's index
# Actual output growth, an AR(1) with noisy release revisions, and the latent common baseline = actual + noise.
ACTUAL_INTERCEPT, ACTUAL_AR, ACTUAL_SD, REVISION_SD, BASELINE_NOISE_SD = 0.5, 0.3, 2.0, 0.3, 0.1


class SynthConfig:
    """The simulator's settings: each keyword argument replaces the default of the attribute it names.

    Each annotated attribute declares one setting; a subclass declares only its own settings.
    """

    n_forecasters: int = 50
    n_quarters: int = 92
    seed: int = 12345
    # Judgment law: j = rho_i * lag(j) + kappa * prior-release j + innovation.
    rho_own: float = 0.1
    rho_own_sd: float = 0.0  # persistence heterogeneity across forecasters
    kappa: float = 0.0
    judgment_sd: float = 0.2
    p_neutral: float = 0.0
    participation_low: float = 1.0
    participation_high: float = 1.0
    grid: float = DEFAULT_GRID

    @classmethod
    def settings(cls) -> dict:
        """Each setting's name and default, the base class's settings first."""
        return {name: getattr(cls, name) for c in reversed(cls.__mro__) for name in vars(c).get("__annotations__", ())}

    def __init__(self, **settings):
        if unknown := settings.keys() - self.settings().keys():
            raise TypeError(f"unknown settings: {', '.join(sorted(unknown))}")
        vars(self).update(settings)
        for name, least in (("n_forecasters", 1), ("n_quarters", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if abs(self.rho_own) >= 1:
            raise ValueError("own-lag persistence must satisfy |rho| < 1")
        for name in ("judgment_sd", "rho_own_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.p_neutral <= 1:
            raise ValueError("p_neutral must be in [0, 1]")
        if not 0 <= self.participation_low <= self.participation_high <= 1:
            raise ValueError("participation range must satisfy 0 <= low <= high <= 1")


class SynthTruth:
    """A world's latent truth: quarter indexes (T,), actuals and common baselines (3, T), judgments (N, T, 3), rho_i."""

    def __init__(self, quarters: np.ndarray, economists: list[str], actuals: np.ndarray, baselines: np.ndarray,
                 judgments: np.ndarray, rho_i: np.ndarray):
        self.quarters, self.economists, self.actuals, self.baselines = quarters, economists, actuals, baselines
        self.judgments, self.rho_i = judgments, rho_i


class SynthWorld(NamedTuple):
    config: SynthConfig
    actuals: Mapping[ReleaseKind, QuarterSeries]
    panel: ForecastPanel
    spf: SpfNowcasts
    truth: SynthTruth


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


class _Ids(NamedTuple):
    """The id tables of an N-forecaster world, the codes of forecaster i, and the forecasters in code order.

    No panel keeps a firm column; the firm table is what ``simulate`` writes as ``firm_id``.
    """

    economists: list[str]
    economist_ids: tuple[str, ...]
    economist: np.ndarray
    firm_ids: tuple[str, ...]
    firm: np.ndarray
    by_code: np.ndarray


def _ids(n: int) -> _Ids:
    economists = [f"E{i:04d}" for i in range(n)]
    economist_ids, economist = factorize(economists)
    firm_ids, firm = factorize([f"F{i % max(n // 2, 1):04d}" for i in range(n)])
    # Past 10,000 forecasters the ids no longer sort numerically, so code order is not i order.
    return _Ids(economists, economist_ids, economist, firm_ids, firm, np.argsort(economist))


class _Block(NamedTuple):
    """One simulator pass over a block of seeds; member s of each array belongs to the s-th seed."""

    actuals: np.ndarray    # (S, 3, T)
    baselines: np.ndarray  # (S, 3, T) latent common baselines
    rho_i: np.ndarray      # (S, N) per-forecaster own-lag persistence
    judgments: np.ndarray  # (K, T, S, N) latent judgments of the first K releases
    mask: np.ndarray       # (S, N, T) participation


def _simulate_block(config: SynthConfig, seeds: Sequence[int], releases: int = 3) -> _Block:
    """Simulate one world per seed, with the judgments of the first ``releases`` releases.

    Each seed draws its own sub-streams, so a world does not depend on the
    block it is simulated in.  The judgment recursion then runs once for the
    block: each (release, quarter) step is one contiguous row over every
    (seed, forecaster) pair, and each element goes through the operations of
    a one-seed pass in the same order.  No release feeds an earlier one.
    """
    n, t, size = config.n_forecasters, config.n_quarters, len(seeds)
    actuals, baselines = np.empty((size, 3, t)), np.empty((size, 3, t))
    rho_i = np.full((size, n), config.rho_own)
    judgments = np.empty((releases, t, size, n))
    # Stream 4 feeds only the neutral mask, so a world without neutral judgments skips it.
    neutral = np.empty((releases, t, size, n), dtype=bool) if config.p_neutral > 0 else None
    mask = np.empty((size, n, t), dtype=bool)
    burn = 50
    level = ACTUAL_INTERCEPT / (1.0 - ACTUAL_AR)
    for s, seed in enumerate(seeds):
        # Actual process with burn-in, then revision chains.
        eps = _rng(seed, 0).normal(0.0, ACTUAL_SD, size=t + burn).tolist()
        path = [level + eps[0]]
        for e in eps[1:]:
            path.append(ACTUAL_INTERCEPT + ACTUAL_AR * path[-1] + e)
        actuals[s, 0] = path[burn:]
        rng_rev = _rng(seed, 1)
        actuals[s, 1] = actuals[s, 0] + rng_rev.normal(0.0, REVISION_SD, size=t)
        actuals[s, 2] = actuals[s, 1] + rng_rev.normal(0.0, REVISION_SD, size=t)
        baselines[s] = actuals[s] + _rng(seed, 2).normal(0.0, BASELINE_NOISE_SD, size=(3, t))

        rng_judg = _rng(seed, 3)
        if config.rho_own_sd > 0:
            rho_i[s] = np.clip(rng_judg.normal(config.rho_own, config.rho_own_sd, size=n), -0.95, 0.95)
        eta = rng_judg.normal(0.0, config.judgment_sd, size=(n, t, 3))
        judgments[:, :, s] = eta[:, :, :releases].transpose(2, 1, 0)
        if neutral is not None:
            draws = _rng(seed, 4).random(size=(n, t, 3))
            neutral[:, :, s] = (draws[:, :, :releases] < config.p_neutral).transpose(2, 1, 0)

        rng_part = _rng(seed, 5)
        rates = rng_part.uniform(config.participation_low, config.participation_high, size=n)
        mask[s] = rng_part.random(size=(n, t)) < rates[:, None]

    # Judgments: own-lag recursion per release with cross-release carryover.
    for k in range(releases):
        for i_t in range(t):
            j = judgments[k, i_t]  # eta until updated in place
            if i_t > 0:
                j += rho_i * judgments[k, i_t - 1]
            if k > 0:
                j += config.kappa * judgments[k - 1, i_t]
            if neutral is not None:
                j[neutral[k, i_t]] = 0.0
    return _Block(actuals, baselines, rho_i, judgments, mask)


def _panel(config: SynthConfig, block: _Block, s: int, ids: _Ids) -> ForecastPanel:
    """The forecasts of the block's s-th world for every release it simulated, in canonical order."""
    releases, order = block.judgments.shape[0], ids.by_code
    # One row per (release, economist, quarter) with participation, economists in code order.
    mask = block.mask[s][order]
    rows = mask.sum(axis=1)
    latent = block.baselines[s, :releases, None] + block.judgments[:, :, s].transpose(0, 2, 1)[:, order]
    forecasts = grid_round(latent[:, mask], config.grid)
    return ForecastPanel(
        ids.economist_ids,
        np.tile(np.repeat(ids.economist[order], rows), releases),
        np.tile(np.broadcast_to(START + np.arange(config.n_quarters), mask.shape)[mask], releases),
        np.repeat(np.arange(1, releases + 1, dtype=np.int64), forecasts.shape[1]),
        forecasts.ravel(),
        np.full(forecasts.size, -1, dtype=np.int64),
    )


def simulate_world(config: SynthConfig) -> SynthWorld:
    """Deterministically generate a synthetic world from its config and the config's seed."""
    t = config.n_quarters
    block = _simulate_block(config, [config.seed])
    ids = _ids(config.n_forecasters)
    actuals = block.actuals[0]
    rng_spf = _rng(config.seed, 6)
    spf_median = actuals[0] + rng_spf.normal(0.0, 0.5, size=t)
    spf_mean = spf_median + rng_spf.normal(0.0, 0.1, size=t)
    spf = SpfNowcasts(QuarterSeries(START, spf_median), QuarterSeries(START, spf_mean))
    actual_series = {ReleaseKind(k + 1): QuarterSeries(START, actuals[k]) for k in range(3)}
    judgments = np.ascontiguousarray(block.judgments[:, :, 0].transpose(2, 1, 0))  # (N, T, 3)
    truth = SynthTruth(START + np.arange(t), ids.economists, actuals, block.baselines[0], judgments, block.rho_i[0])
    return SynthWorld(config, actual_series, _panel(config, block, 0, ids), spf, truth)


def recovery_experiment(config: SynthConfig, replications: int) -> SimpleNamespace:
    """Monte-Carlo check of the fixed-effects persistence estimator.

    Each replication simulates a world, extracts judgments against the
    empirical median baseline and estimates the own-lag FE specification for
    the first release.  Replications use seeds config.seed + index, so
    results are deterministic.  They are simulated in blocks of at most
    ``BLOCK_CELLS`` cells, first release only, with the bits of one world at
    a time, and each block's datasets are fitted in one ``fe_estimate`` call.

    Returns ``fe_estimate``'s aligned columns, entry r for replication r,
    plus ``covered``: whether the 95% clustered CI covers rho_own, that is
    whether the two-sided t test of beta = rho_own has p >= 0.05 (False
    where the fit failed).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    ids = _ids(config.n_forecasters)
    size = max(1, BLOCK_CELLS // (config.n_forecasters * config.n_quarters * 3))
    blocks = []
    for first in range(0, replications, size):
        reps = range(first, min(first + size, replications))
        block = _simulate_block(config, [config.seed + rep for rep in reps], releases=1)
        datasets = []
        for s in range(len(reps)):
            panel = _panel(config, block, s, ids)
            judgments = {ReleaseKind.FIRST: extract_judgments(panel, baseline(panel, ReleaseKind.FIRST),
                                                              grid=config.grid)}
            datasets.append(build_persistence_dataset(judgments, ReleaseKind.FIRST, "own_lag"))
        blocks.append(fe_estimate(datasets, "fe"))
    fits = SimpleNamespace(**{name: np.concatenate([getattr(fit, name) for fit in blocks])
                              for name in vars(blocks[0]) if name != "error"})
    fits.error = [error for fit in blocks for error in fit.error]
    fitted = np.array([not error for error in fits.error], dtype=bool)
    fits.covered = np.zeros(replications, dtype=bool)
    fits.covered[fitted] = t_test_p_value(fits.beta[fitted], config.rho_own, fits.se_clustered[fitted],
                                          fits.n_forecasters[fitted] - 1) >= 0.05  # inside the 95% interval
    return fits
