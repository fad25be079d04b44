"""Judgment evaluation for panels of macroeconomic backcasts.

A library and CLI that extracts forecaster judgment relative to a common
baseline, tests unbiasedness, efficiency and accuracy of the judgment-
augmented predictions, and estimates judgment persistence with fixed-effects
panel regressions.
"""

from .quarters import ReleaseKind, parse_quarter, quarter_label
from .panel import (
    CleaningLog,
    ForecastPanel,
    QuarterSeries,
    SpfNowcasts,
    clean_panel,
    joint_coverage,
    load_actuals,
    load_forecasts,
    load_spf,
    participation_share,
)
from .descriptive import armse, quarter_stats
from .judgment import (
    BaselineSeries,
    JudgmentPanel,
    baseline,
    baseline_hit_stats,
    extract_judgments,
    negative_share_histogram,
    sign_shares,
)
from .linreg import (
    RegressionFit,
    efficiency_regression,
    hac_covariance,
    newey_west_auto_lag,
    ols,
    test_battery_aggregate,
    test_battery_individual,
    wald_joint_test,
)
from .accuracy import (
    accuracy_table,
    beat_baseline_share,
    dm_test,
    hln_correction,
)
from .panelreg import (
    PersistenceData,
    build_persistence_dataset,
    clustered_covariance,
    fe_estimate,
    persistence_battery,
)
from .armodel import ARForecasts, fill_missing, recursive_ar_forecast, select_lag
from .syngen import SynthConfig, SynthWorld, recovery_experiment, simulate_world

__version__ = "0.1.0"
