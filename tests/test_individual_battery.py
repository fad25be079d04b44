"""The stacked individual battery against a per-forecaster loop (hypothesis).

``loop_battery`` is the battery as it ran before the forecasters of a release
were fitted as one stack: one ``efficiency_regression``, HC1 sandwich and
Wald test per forecaster and test.  It serves as the brute-force reference.
"""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from judgebench.errors import EstimationError
from judgebench.judgment import passes_threshold
from judgebench.linreg import (
    DETAIL_COLUMNS,
    SHARE_COLUMNS,
    efficiency_regression,
    hac_covariance,
    test_battery_individual as battery_individual,
    wald_joint_test,
)
from judgebench.panel import ForecastPanel, participation_share
from judgebench.quarters import ReleaseKind

from conftest import as_records, q, rec, series_from

START = q(2000, 1)
BLOCK = 32  # quarters after the random span, where the hand-made forecasters report
MAX_SPAN = 30  # random forecasters report within this many quarters, so none is wider than BLOCK
R1 = ReleaseKind.FIRST
MIN_OBS_UNBIASEDNESS = 10  # K + 8 sample quarters for the K = 2 unbiasedness coefficients
MIN_OBS_EFFICIENCY = 12  # and for the K = 4 efficiency ones


class ForecasterTestDetail(NamedTuple):
    """One forecaster's tests, None where a value is absent."""

    economist_id: str
    release: ReleaseKind
    nobs: int
    alpha_hat: float | None
    beta_hat: float | None
    p_unbiased: float | None
    p_efficient: float | None
    note: str = ""


class IndividualShareRow(NamedTuple):
    release: ReleaseKind
    threshold: float
    n_qualifying: int
    n_tested_unbiased: int
    share_unbiased: float | None
    n_tested_efficient: int
    share_efficient: float | None
    n_excluded_unbiased: int
    n_excluded_efficient: int


class IndividualBattery:
    def __init__(self, details=None, shares=None):
        self.details: list[ForecasterTestDetail] = details or []
        self.shares: list[IndividualShareRow] = shares or []


def battery_records(panel, *args, **kwargs) -> IndividualBattery:
    """The stacked battery's two tables as the loop's records, economist codes read as ids."""
    details, shares = battery_individual(panel, *args, **kwargs)
    ids = [panel.economist_ids[code] for code in details.economist.tolist()]
    return IndividualBattery(
        as_records(ForecasterTestDetail, ids, *(getattr(details, f) for f in ForecasterTestDetail._fields[1:])),
        as_records(IndividualShareRow, *(getattr(shares, name) for name in IndividualShareRow._fields)))


def loop_forecaster_tests(economist_id, release, actual, prediction, *extra):
    """One forecaster's tests; the arrays are aligned on the forecaster's quarters, ascending."""
    has_actual = ~np.isnan(actual)
    nobs = int(np.count_nonzero(has_actual))
    alpha_hat = beta_hat = p_unb = p_eff = None
    notes = []
    if nobs >= MIN_OBS_UNBIASEDNESS:
        try:
            fit, design = efficiency_regression(actual, prediction)
            alpha_hat = float(fit.coefficients[0])
            beta_hat = float(fit.coefficients[1])
            _, p_unb = wald_joint_test(fit, hac_covariance(fit, design, 0))
        except EstimationError as exc:
            notes.append(f"unbiasedness: {exc}")
    else:
        notes.append("unbiasedness: too few observations")
    eff_nobs = np.count_nonzero(np.logical_and.reduce([has_actual, *(~np.isnan(x) for x in extra)]))
    if eff_nobs >= MIN_OBS_EFFICIENCY:
        try:
            fit, design = efficiency_regression(actual, prediction, extra)
            _, p_eff = wald_joint_test(fit, hac_covariance(fit, design, 0))
        except EstimationError as exc:
            notes.append(f"efficiency: {exc}")
    else:
        notes.append("efficiency: too few observations")
    return ForecasterTestDetail(
        economist_id, release, nobs, alpha_hat, beta_hat, p_unb, p_eff, "; ".join(notes)
    )


def loop_battery(panel, actuals, spf, ar_forecasts, participation, thresholds=(0.10, 0.25, 0.50), alpha=0.05):
    battery = IndividualBattery()
    for release in sorted(actuals):
        rows = panel.release == release
        order = np.flatnonzero(rows)[np.lexsort((panel.quarter[rows], panel.economist[rows]))]
        codes, start = np.unique(panel.economist[order], return_index=True)
        if not codes.size:
            continue
        bounds = np.append(start, order.size)
        quarter = panel.quarter[order]
        columns = (actuals[release].at(quarter), panel.value[order],
                   spf["median"].at(quarter), ar_forecasts[release].at(quarter))
        details = [
            loop_forecaster_tests(panel.economist_ids[code], release, *(c[lo:hi] for c in columns))
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


@st.composite
def worlds(draw):
    """An unbalanced panel with gaps in the actuals, the SPF and the AR forecasts, plus hand-made forecasters.

    Random forecasters report on a random share of the first ``span``
    quarters.  After them comes a block of BLOCK quarters with every input
    present, where release 1 gets the hand-made cases: too few observations,
    10-11 (unbiasedness only), a constant prediction and a zero one (a
    rank-deficient slope column, whose R factor has an exact zero), an exact prediction (the Wald test's rounding-level p = 1), and
    a prediction whose errors the regression fits exactly with a nonzero
    slope (a zero covariance, so V is singular).  That forecaster is the
    widest of its stack, so it is fitted without padding and its exact zero
    residuals do not depend on the stacking.
    """
    span = draw(st.integers(12, MAX_SPAN))
    n_random = draw(st.integers(2, 8))
    few = draw(st.integers(1, MIN_OBS_UNBIASEDNESS - 1))
    ten = draw(st.integers(MIN_OBS_UNBIASEDNESS, MIN_OBS_EFFICIENCY - 1))
    gap_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    quarters = [START + t for t in range(span + BLOCK)]
    random_part, block = quarters[:span], quarters[span:]
    block_prediction = np.tile([1.0, -1.0], BLOCK // 2)

    def with_gaps(values):
        kept = rng.random(span) >= gap_share
        return {q: float(v) for q, v, keep in zip(random_part, values, kept) if keep}

    actual_values = {release: rng.normal(1.0, 1.0, span) for release in ReleaseKind}
    actuals = {
        release: series_from({**with_gaps(values), **dict(zip(block, 2.0 * block_prediction))})
        for release, values in actual_values.items()
    }
    spf_median = {**with_gaps(rng.normal(1.0, 1.0, span)), **dict(zip(block, rng.normal(1.0, 1.0, BLOCK)))}
    spf = {"median": series_from(spf_median), "mean": series_from(spf_median)}
    ar = {
        release: series_from({**with_gaps(rng.normal(1.0, 1.0, span)), **dict(zip(block, rng.normal(1.0, 1.0, BLOCK)))})
        for release in ReleaseKind
    }

    rows = []
    for i in range(n_random):
        share = rng.uniform(0.2, 1.0)
        bias, slope = rng.normal(0.0, 0.3), rng.uniform(0.6, 1.2)
        for release, values in actual_values.items():
            for t in np.flatnonzero(rng.random(span) < share):
                value = bias + slope * values[t] + rng.normal(0.0, 0.5)
                rows.append(rec(f"R{i}", random_part[t], float(value), release))
    hand_made = {
        "few": rng.normal(0.0, 1.0, few),
        "ten": rng.normal(0.0, 1.0, ten),
        "constant": np.full(BLOCK, 0.7),
        "zero": np.zeros(BLOCK),
        "exact": 2.0 * block_prediction,
        "singular": block_prediction,
    }
    for name, values in hand_made.items():
        rows.extend(rec(name, q, float(v), R1) for q, v in zip(block, values))
    panel = ForecastPanel.from_rows(rows)
    participation = {release: participation_share(panel, release) for release in ReleaseKind}
    return panel, actuals, spf, ar, participation


def close(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_stacked_battery_matches_per_forecaster_loop(world):
    stacked, loop = battery_records(*world), loop_battery(*world)
    assert stacked.shares == loop.shares
    assert len(stacked.details) == len(loop.details)
    for got, want in zip(stacked.details, loop.details):
        assert (got.economist_id, got.release, got.nobs, got.note) == (
            want.economist_id, want.release, want.nobs, want.note)
        for field in ("alpha_hat", "beta_hat", "p_unbiased", "p_efficient"):
            assert close(getattr(got, field), getattr(want, field)), (got, want, field)

    hand_made = {d.economist_id: d for d in stacked.details if d.release == R1 and not d.economist_id.startswith("R")}
    too_few = "unbiasedness: too few observations; efficiency: too few observations"
    assert hand_made["few"].note == too_few and hand_made["few"].p_unbiased is None
    assert hand_made["ten"].note == "efficiency: too few observations"
    assert hand_made["ten"].p_unbiased is not None and hand_made["ten"].p_efficient is None
    for name in ("constant", "zero"):
        assert hand_made[name].note == (
            "unbiasedness: design column 1 is linearly dependent on earlier columns; "
            "efficiency: design column 1 is linearly dependent on earlier columns")
        assert hand_made[name].alpha_hat is None
    assert (hand_made["exact"].p_unbiased, hand_made["exact"].p_efficient) == (1.0, 1.0)
    assert hand_made["singular"].note.startswith("unbiasedness: V is singular")
    assert hand_made["singular"].p_unbiased is None
    assert math.isclose(hand_made["singular"].beta_hat, 1.0)


def test_missing_predictions_count_against_the_sample_not_the_stack():
    # A panel built in code may hold NaN forecasts.  Such a forecaster is too
    # short for both regressions here, and the other forecaster is still tested.
    quarters = [START + t for t in range(16)]
    rng = np.random.default_rng(17)
    actual = rng.normal(1.0, 1.0, 16)
    values = {"full": actual + rng.normal(0.0, 0.5, 16), "gappy": np.where(np.arange(16) % 2, np.nan, actual)}
    panel = ForecastPanel.from_rows(rec(name, q, float(v), R1) for name, vs in values.items() for q, v in zip(quarters, vs))
    spf, ar = (series_from(dict(zip(quarters, rng.normal(1.0, 1.0, 16)))) for _ in range(2))
    battery = battery_records(panel, {R1: series_from(dict(zip(quarters, actual)))},
                              {"median": spf, "mean": spf}, {R1: ar}, {R1: participation_share(panel, R1)})
    detail = {d.economist_id: d for d in battery.details}
    assert detail["gappy"].nobs == 16
    assert detail["gappy"].note == "unbiasedness: too few observations; efficiency: too few observations"
    assert detail["full"].note == "" and detail["full"].p_efficient is not None


@pytest.mark.parametrize("releases", [[], [R1]], ids=["no-release", "release-without-forecasts"])
def test_no_forecaster_gives_typed_empty_columns(releases):
    # Empty columns keep their types, so the economist codes can still index an id table.
    panel = ForecastPanel.from_rows([])
    series = series_from({START: 1.0})
    by_release = {r: series for r in releases}
    details, shares = battery_individual(panel, by_release, {"median": series, "mean": series}, by_release,
                                         {r: participation_share(panel, r) for r in releases})
    assert details.note == []
    assert [(getattr(details, name).size, getattr(details, name).dtype.kind) for name in DETAIL_COLUMNS] == [
        (0, kind) for kind in "iiiffff"]
    assert [(getattr(shares, name).size, getattr(shares, name).dtype.kind) for name in SHARE_COLUMNS] == [
        (0, kind) for kind in "ifiifiifi"]
