import numpy as np
import pytest

from judgebench.panelreg import build_persistence_dataset, fe_estimate
from judgebench.quarters import Quarter, ReleaseKind
from judgebench.syngen import (
    SynthConfig,
    extract_world_judgments,
    recovery_experiment,
    simulate_world,
)

from conftest import rows_of

R1 = ReleaseKind.FIRST


class TestSimulateWorld:
    def test_degenerate_world_collapses_to_actual(self):
        config = SynthConfig(
            n_forecasters=5,
            n_quarters=8,
            actual_sd=0.0,
            revision_sd=0.0,
            baseline_noise_sd=0.0,
            rho_own=0.0,
            kappa=0.0,
            judgment_sd=0.0,
            p_neutral=1.0,
            grid=0.1,
            actual_intercept=0.5,
            actual_ar=0.0,
        )
        world = simulate_world(config)
        # Noise-free: actual is the constant 0.5 everywhere and every forecast matches it.
        for release in ReleaseKind:
            actual = world.actuals[release]
            for record in (r for r in rows_of(world.panel) if r.release == release):
                assert record.value == pytest.approx(actual[record.quarter], abs=1e-12)
        jp = extract_world_judgments(world, R1)
        assert all(jp.neutral.tolist())

    def test_determinism(self):
        config = SynthConfig(n_forecasters=10, n_quarters=20)
        a = simulate_world(config, seed=99)
        b = simulate_world(config, seed=99)
        assert np.array_equal(a.truth.actuals, b.truth.actuals)
        assert np.array_equal(a.truth.judgments, b.truth.judgments)
        assert [r.value for r in rows_of(a.panel)] == [r.value for r in rows_of(b.panel)]

    def test_adding_forecasters_keeps_actual_series(self):
        small = simulate_world(SynthConfig(n_forecasters=5, n_quarters=20), seed=5)
        large = simulate_world(SynthConfig(n_forecasters=50, n_quarters=20), seed=5)
        assert np.array_equal(small.truth.actuals, large.truth.actuals)

    def test_cross_sectional_mean_judgment_near_zero(self):
        config = SynthConfig(n_forecasters=400, n_quarters=12, judgment_sd=0.2, rho_own=0.0)
        world = simulate_world(config, seed=11)
        sd_bound = 3 * config.judgment_sd / np.sqrt(config.n_forecasters)
        means = world.truth.judgments[:, :, 0].mean(axis=0)
        assert np.abs(means).max() < sd_bound * 1.5

    def test_forecast_equals_baseline_plus_judgment_grid_rounded(self):
        config = SynthConfig(n_forecasters=4, n_quarters=6, grid=0.1)
        world = simulate_world(config, seed=3)
        truth = world.truth
        for record in (r for r in rows_of(world.panel) if r.release == R1):
            i = truth.economists.index(record.economist_id)
            t = truth.quarters.index(record.quarter)
            latent = truth.baselines[0, t] + truth.judgments[i, t, 0]
            assert record.value == pytest.approx(round(latent / 0.1) * 0.1, abs=1e-9)

    def test_participation_range_respected(self):
        config = SynthConfig(
            n_forecasters=30, n_quarters=40, participation_low=0.4, participation_high=0.8
        )
        world = simulate_world(config, seed=13)
        n_cells = len({(r.economist_id, r.quarter) for r in rows_of(world.panel) if r.release == R1})
        share = n_cells / (30 * 40)
        assert 0.3 < share < 0.9

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
            baseline_noise_sd=0.05,
            p_neutral=0.0,
            grid=0.1,
        )
        world = simulate_world(config, seed=21)
        jp = extract_world_judgments(world, R1)
        truth = world.truth
        latent, extracted = [], []
        for row, value in zip(rows_of(jp.panel), jp.value.tolist()):
            i = truth.economists.index(row.economist_id)
            t = truth.quarters.index(row.quarter)
            latent.append(truth.judgments[i, t, 0])
            extracted.append(value)
        corr = np.corrcoef(latent, extracted)[0, 1]
        assert corr > 0.9

    def test_cross_release_carryover_identified(self):
        config = SynthConfig(
            n_forecasters=60, n_quarters=50, rho_own=0.0, kappa=0.5, judgment_sd=0.3
        )
        world = simulate_world(config, seed=31)
        jp = {release: extract_world_judgments(world, release) for release in (R1, ReleaseKind.SECOND)}
        own = fe_estimate(build_persistence_dataset(jp, ReleaseKind.SECOND, "own_lag"), "fe")
        cross = fe_estimate(
            build_persistence_dataset(jp, ReleaseKind.SECOND, "prior_release"), "fe"
        )
        assert abs(own.beta) < 0.1
        assert cross.beta > abs(own.beta)
        assert cross.beta > 0.2  # attenuated but clearly positive


class TestRecoveryExperiment:
    def test_summary_counts_and_determinism_across_runs(self):
        config = SynthConfig(n_forecasters=20, n_quarters=30, rho_own=0.2, judgment_sd=0.2)
        first = recovery_experiment(config, replications=4, base_seed=500)
        second = recovery_experiment(config, replications=4, base_seed=500)
        assert first.n_completed == 4
        assert first.betas == second.betas
        assert first.ci_coverage == second.ci_coverage

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            recovery_experiment(SynthConfig(), replications=0)
