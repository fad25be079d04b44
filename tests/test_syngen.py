"""The simulator and the recovery experiment.

``loop_recovery`` is ``recovery_experiment`` as it ran before replications
were simulated in blocks: one whole three-release world per replication,
then the first release's judgments and the own-lag FE fit.  It serves as the
reference the block pass must match bit for bit.  Its coverage is the
interval form, beta -/+ t(0.975, G-1) SE around rho_own with the quantile
from scipy, so the block pass's p-value form is checked against it.
"""
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import judgebench.syngen as syngen
from judgebench.cli import RunConfig
from judgebench.errors import EstimationError
from judgebench.judgment import baseline, extract_judgments
from judgebench.panel import _COLUMNS
from judgebench.panelreg import build_persistence_dataset
from judgebench.quarters import ReleaseKind
from judgebench.syngen import SynthConfig, recovery_experiment, simulate_world

from conftest import entries, fe_fit, rows_of

R1 = ReleaseKind.FIRST


def world_judgments(world, release):
    """The world's judgments for one release against its median baseline."""
    return extract_judgments(world.panel, release, baseline(world.panel, release), grid=world.config.grid)


def reseeded(config: SynthConfig, seed: int) -> SynthConfig:
    """The same settings with another seed."""
    return SynthConfig(**{**vars(config), "seed": seed})


class TestSimulateWorld:
    def test_degenerate_world_collapses_to_baseline(self):
        config = SynthConfig(n_forecasters=5, n_quarters=8, judgment_sd=0.0, p_neutral=1.0, grid=0.1)
        world = simulate_world(config)
        # No judgment: every forecast is its quarter's latent baseline on the grid, and every judgment is neutral.
        truth = world.truth
        for release in ReleaseKind:
            for record in (r for r in rows_of(world.panel) if r.release == release):
                t = truth.quarters.tolist().index(record.quarter)
                assert record.value == pytest.approx(round(truth.baselines[release - 1, t] / 0.1) * 0.1, abs=1e-12)
            assert all(world_judgments(world, release).neutral.tolist())

    def test_determinism(self):
        config = SynthConfig(n_forecasters=10, n_quarters=20, seed=99)
        a = simulate_world(config)
        b = simulate_world(config)
        assert np.array_equal(a.truth.actuals, b.truth.actuals)
        assert np.array_equal(a.truth.judgments, b.truth.judgments)
        assert [r.value for r in rows_of(a.panel)] == [r.value for r in rows_of(b.panel)]

    def test_seed_comes_from_the_config(self):
        config = SynthConfig(n_forecasters=10, n_quarters=20, seed=99)
        other = simulate_world(reseeded(config, 100))
        assert other.config.seed == 100
        assert not np.array_equal(simulate_world(config).truth.actuals, other.truth.actuals)

    def test_adding_forecasters_keeps_actual_series(self):
        small = simulate_world(SynthConfig(n_forecasters=5, n_quarters=20, seed=5))
        large = simulate_world(SynthConfig(n_forecasters=50, n_quarters=20, seed=5))
        assert np.array_equal(small.truth.actuals, large.truth.actuals)

    def test_cross_sectional_mean_judgment_near_zero(self):
        config = SynthConfig(n_forecasters=400, n_quarters=12, judgment_sd=0.2, rho_own=0.0, seed=11)
        world = simulate_world(config)
        sd_bound = 3 * config.judgment_sd / np.sqrt(config.n_forecasters)
        means = world.truth.judgments[:, :, 0].mean(axis=0)
        assert np.abs(means).max() < sd_bound * 1.5

    def test_forecast_equals_baseline_plus_judgment_grid_rounded(self):
        config = SynthConfig(n_forecasters=4, n_quarters=6, grid=0.1, seed=3)
        world = simulate_world(config)
        truth = world.truth
        for record in (r for r in rows_of(world.panel) if r.release == R1):
            i = truth.economists.index(record.economist_id)
            t = truth.quarters.tolist().index(record.quarter)
            latent = truth.baselines[0, t] + truth.judgments[i, t, 0]
            assert record.value == pytest.approx(round(latent / 0.1) * 0.1, abs=1e-9)

    def test_participation_range_respected(self):
        config = SynthConfig(
            n_forecasters=30, n_quarters=40, participation_low=0.4, participation_high=0.8, seed=13
        )
        world = simulate_world(config)
        n_cells = len({(r.economist_id, r.quarter) for r in rows_of(world.panel) if r.release == R1})
        share = n_cells / (30 * 40)
        assert 0.3 < share < 0.9

    def test_every_setting_is_a_run_setting(self):
        # A setting no flag or config key reaches would be one only tests can set.
        assert len(SynthConfig.__annotations__) == 11
        assert issubclass(RunConfig, SynthConfig)
        assert list(RunConfig.settings())[:11] == list(SynthConfig.__annotations__)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(rho_own=1.5)
        with pytest.raises(ValueError):
            SynthConfig(judgment_sd=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(participation_low=0.9, participation_high=0.5)


class TestJudgmentExtraction:
    def test_extracted_tracks_latent_judgment(self):
        config = SynthConfig(
            n_forecasters=50,
            n_quarters=60,
            judgment_sd=0.4,
            p_neutral=0.0,
            grid=0.1,
            seed=21,
        )
        world = simulate_world(config)
        jp = world_judgments(world, R1)
        truth = world.truth
        latent, extracted = [], []
        for row, value in zip(rows_of(jp.panel), jp.value.tolist()):
            i = truth.economists.index(row.economist_id)
            t = truth.quarters.tolist().index(row.quarter)
            latent.append(truth.judgments[i, t, 0])
            extracted.append(value)
        corr = np.corrcoef(latent, extracted)[0, 1]
        assert corr > 0.9

    def test_cross_release_carryover_identified(self):
        config = SynthConfig(
            n_forecasters=60, n_quarters=50, rho_own=0.0, kappa=0.5, judgment_sd=0.3, seed=31
        )
        world = simulate_world(config)
        jp = {release: world_judgments(world, release) for release in (R1, ReleaseKind.SECOND)}
        own = fe_fit(build_persistence_dataset(jp, ReleaseKind.SECOND, "own_lag"), "fe")
        cross = fe_fit(
            build_persistence_dataset(jp, ReleaseKind.SECOND, "prior_release"), "fe"
        )
        assert abs(own.beta) < 0.1
        assert cross.beta > abs(own.beta)
        assert cross.beta > 0.2  # attenuated but clearly positive


class TestRecoveryExperiment:
    def test_summary_counts_and_determinism_across_runs(self):
        config = SynthConfig(n_forecasters=20, n_quarters=30, rho_own=0.2, judgment_sd=0.2, seed=500)
        first = recovery_experiment(config, replications=4)
        second = recovery_experiment(config, replications=4)
        assert first.error == [""] * 4
        assert bits(first.beta) == bits(second.beta)
        assert first.covered.tolist() == second.covered.tolist()

    def test_replications_run_from_the_config_seed(self):
        config = SynthConfig(n_forecasters=20, n_quarters=30, rho_own=0.2, judgment_sd=0.2, seed=500)
        whole = recovery_experiment(config, replications=3)
        tail = recovery_experiment(reseeded(config, config.seed + 1), replications=2)
        assert whole.error == [""] * 3
        assert bits(whole.beta[1:]) == bits(tail.beta)

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            recovery_experiment(SynthConfig(), replications=0)


def loop_recovery(config: SynthConfig, replications: int):
    """(fits, failures, covered), one simulate_world per replication; covered holds one bool per fit."""
    fits, failures = [], []
    for rep in range(replications):
        try:
            world = simulate_world(reseeded(config, config.seed + rep))
            judgments = {R1: world_judgments(world, R1)}
            fits.append(fe_fit(build_persistence_dataset(judgments, R1, "own_lag"), "fe"))
        except EstimationError as exc:
            failures.append(f"replication {rep}: {exc}")
    betas = np.array([fit.beta for fit in fits])
    half = scipy.stats.t.ppf(0.975, [fit.n_forecasters - 1 for fit in fits]) * np.array(
        [fit.se_clustered for fit in fits])
    covered = (betas - half <= config.rho_own) & (config.rho_own <= betas + half)
    return fits, failures, covered.tolist()


def bits(values) -> list[str]:
    """repr of each float, which tells every float apart (-0.0 and NaN included)."""
    return [repr(float(v)) for v in values]


BLOCK_CONFIGS = [
    SynthConfig(n_forecasters=9, n_quarters=12, kappa=0.4, rho_own=0.3, rho_own_sd=0.2, p_neutral=0.3,
                participation_low=0.4, participation_high=0.9),
    SynthConfig(n_forecasters=7, n_quarters=10, kappa=-0.3, p_neutral=0.5, participation_low=0.2, grid=0.0),
    SynthConfig(n_forecasters=6, n_quarters=8),
]


class TestBlockPass:
    @pytest.mark.parametrize("config", BLOCK_CONFIGS)
    @pytest.mark.parametrize("releases", [1, 3])
    def test_block_panel_equals_each_worlds_panel(self, config, releases):
        seeds = range(40, 45)
        block = syngen._simulate_block(config, seeds, releases)
        ids = syngen._ids(config.n_forecasters)
        for s, seed in enumerate(seeds):
            got = syngen._panel(config, block, s, ids)
            world = simulate_world(reseeded(config, seed)).panel
            want = world.for_release(R1) if releases == 1 else world
            assert got.economist_ids == want.economist_ids
            for name in _COLUMNS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_world_is_canonical_past_ten_thousand_forecasters(self):
        # "E10000" sorts before "E1001", so forecaster order is not code order.
        config = SynthConfig(n_forecasters=10_001, n_quarters=2, participation_low=0.5, seed=1)
        block, ids = syngen._simulate_block(config, [1], 1), syngen._ids(config.n_forecasters)
        panel = syngen._panel(config, block, 0, ids)
        assert panel.economist_ids[1000:1003] == ("E1000", "E10000", "E1001")
        who, when = np.nonzero(block.mask[0])  # forecaster order
        order = np.lexsort((when, ids.economist[who]))
        latent = block.baselines[0, 0, when] + block.judgments[0, when, 0, who]
        assert np.array_equal(panel.economist, ids.economist[who][order])
        assert np.array_equal(panel.quarter, syngen.START + when[order])
        assert np.array_equal(panel.value, (np.round(latent / config.grid) * config.grid)[order])
        simulate_world(config).panel.for_release(R1)  # raises unless canonical

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8), t=st.integers(3, 10), replications=st.integers(1, 9),
        block=st.integers(1, 5), spare=st.floats(0.0, 0.99), seed=st.integers(0, 10**6),
        rho_own=st.sampled_from([-0.4, 0.0, 0.3]), rho_own_sd=st.sampled_from([0.0, 0.2]),
        kappa=st.sampled_from([0.0, 0.4]), p_neutral=st.sampled_from([0.0, 0.3]),
        participation=st.sampled_from([(1.0, 1.0), (0.5, 1.0), (0.1, 0.4)]), grid=st.sampled_from([0.0, 0.1]),
    )
    @example(n=2, t=3, replications=7, block=3, spare=0.0, seed=11, rho_own=0.1, rho_own_sd=0.0, kappa=0.0,
             p_neutral=0.0, participation=(0.1, 0.4), grid=0.1)  # most replications fail
    @example(n=5, t=6, replications=4, block=1, spare=0.0, seed=3, rho_own=0.1, rho_own_sd=0.2, kappa=0.4,
             p_neutral=0.3, participation=(0.5, 1.0), grid=0.1)  # blocks of one
    def test_blocks_match_the_per_replication_loop(self, n, t, replications, block, spare, seed, rho_own,
                                                   rho_own_sd, kappa, p_neutral, participation, grid):
        config = SynthConfig(n_forecasters=n, n_quarters=t, rho_own=rho_own, rho_own_sd=rho_own_sd, kappa=kappa,
                             p_neutral=p_neutral, participation_low=participation[0],
                             participation_high=participation[1], grid=grid, seed=seed)
        cells = n * t * 3
        with mock.patch.object(syngen, "BLOCK_CELLS", block * cells + int(spare * cells)):
            result = recovery_experiment(config, replications)
        loop_fits, failures, covered = loop_recovery(config, replications)
        fits = [fit for fit in entries(result) if not fit.error]
        # Every field of fe_estimate's fit, then the CI check.
        assert [repr(fit[:-1]) for fit in fits] == [repr(tuple(fit)) for fit in loop_fits]
        assert [f"replication {rep}: {error}" for rep, error in enumerate(result.error) if error] == failures
        assert [fit.covered for fit in fits] == covered
        assert not any(fit.covered for fit in entries(result) if fit.error)
