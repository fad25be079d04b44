import io
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from judgebench.accuracy import accuracy_table
from judgebench.descriptive import quarter_stats
from judgebench.errors import IngestionError
from judgebench.judgment import JudgmentPanel, baseline, extract_judgments
from judgebench.panel import (
    CleaningAction,
    ForecastPanel,
    clean_panel,
    joint_coverage,
    load_actuals,
    load_forecasts,
    load_spf,
    participation_share,
)
from judgebench.panelreg import build_persistence_dataset
from judgebench.quarters import ReleaseKind, quarter_label

from conftest import q, rec, record, rows_of, series_from

GOLDEN_FORECASTS = Path(__file__).resolve().parent / "golden" / "inputs" / "forecasts.csv"
COLUMNS = ("economist", "quarter", "release", "value", "report_date")


class TestLoadActuals:
    def test_two_rows(self):
        csv = "quarter,release,value\n2000Q1,1,1.0\n2000Q2,1,2.0\n"
        series = load_actuals(io.StringIO(csv))[ReleaseKind.FIRST]
        assert len(series.quarters()) == 2
        assert series.at(q(2000, 1)) == 1.0

    def test_other_releases_filtered(self):
        csv = "quarter,release,value\n2000Q1,1,1.0\n2000Q1,2,1.1\n"
        series = load_actuals(io.StringIO(csv))[ReleaseKind.FIRST]
        assert len(series.quarters()) == 1

    def test_duplicate_key_rejected(self):
        csv = "quarter,release,value\n2000Q1,1,1.0\n2000Q1,1,2.0\n"
        with pytest.raises(IngestionError, match="duplicate"):
            load_actuals(io.StringIO(csv))[ReleaseKind.FIRST]

    def test_duplicate_in_filtered_release_still_rejected(self):
        csv = "quarter,release,value\n2000Q1,2,1.0\n2000Q1,2,2.0\n"
        with pytest.raises(IngestionError):
            load_actuals(io.StringIO(csv))[ReleaseKind.FIRST]

    def test_non_numeric_value_rejected(self):
        csv = "quarter,release,value\n2000Q1,1,abc\n"
        with pytest.raises(IngestionError, match="non-numeric"):
            load_actuals(io.StringIO(csv))[ReleaseKind.FIRST]

    def test_bad_header_rejected(self):
        with pytest.raises(IngestionError, match="header"):
            load_actuals(io.StringIO("a,b,c\n"))


class TestLoadForecasts:
    def test_basic_rows(self):
        csv = (
            "quarter,release,economist_id,firm_id,value,report_date\n"
            "2000Q1,1,E1,F1,1.5,2000-04-10\n"
            "2000Q1,2,E1,F1,1.6,\n"
        )
        panel = load_forecasts(io.StringIO(csv))
        assert len(panel) == 2
        first = record(panel, "E1", q(2000, 1), ReleaseKind.FIRST)
        assert first.value == 1.5
        assert first.report_date == date(2000, 4, 10)
        assert record(panel, "E1", q(2000, 1), ReleaseKind.SECOND).report_date is None

    def test_non_finite_value_rejected(self):
        csv = "quarter,release,economist_id,firm_id,value,report_date\n2000Q1,1,E1,F1,inf,\n"
        with pytest.raises(IngestionError):
            load_forecasts(io.StringIO(csv))

    HEADER = "quarter,release,economist_id,firm_id,value,report_date\n"

    def test_bad_report_date_names_file_and_line(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text(self.HEADER + "2000Q1,1,E1,F1,1.5,\n2000Q2,1,E1,F1,1.5,2020-13-45\n")
        with pytest.raises(IngestionError, match="report_date") as info:
            load_forecasts(path)
        assert f"{path} line 3" in str(info.value)

    @pytest.mark.parametrize("row", ["2000Q2,1,E1", "2000Q2,1,E1,F1,1.5,,extra"])
    def test_wrong_field_count_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "forecasts.csv"
        path.write_text(self.HEADER + "2000Q1,1,E1,F1,1.5,\n" + row + "\n")
        with pytest.raises(IngestionError, match="expected 6 fields") as info:
            load_forecasts(path)
        assert f"{path} line 3" in str(info.value)

    def test_bad_quarter_names_line(self):
        with pytest.raises(IngestionError, match="line 2"):
            load_forecasts(io.StringIO(self.HEADER + "2000Q5,1,E1,F1,1.5,\n"))


class TestLoadSpf:
    def test_basic(self):
        csv = "quarter,median,mean\n2000Q1,1.0,1.1\n"
        spf = load_spf(io.StringIO(csv))
        assert spf.median.at(q(2000, 1)) == 1.0
        assert spf.for_method("mean").at(q(2000, 1)) == 1.1

    def test_duplicate_quarter_rejected(self):
        csv = "quarter,median,mean\n2000Q1,1.0,1.1\n2000Q1,2.0,2.1\n"
        with pytest.raises(IngestionError):
            load_spf(io.StringIO(csv))


class TestCleanPanel:
    def test_latest_report_date_wins(self):
        quarter = q(2000, 1)
        older = rec("E1", quarter, 1.0, report_date=date(2000, 4, 1))
        newer = rec("E1", quarter, 2.0, report_date=date(2000, 4, 5))
        cleaned, log = clean_panel(ForecastPanel.from_rows([older, newer]))
        assert record(cleaned, "E1", quarter, ReleaseKind.FIRST).value == 2.0
        assert len(log) == 1
        assert log.entries[0].action is CleaningAction.DROPPED_DUPLICATE

    def test_undated_duplicates_break_tie_toward_quarter_median(self):
        quarter = q(2000, 1)
        records = [
            rec("E1", quarter, 2.0),
            rec("E1", quarter, 9.0),
            # Two more economists put the raw within-quarter median at 2.1.
            rec("E2", quarter, 2.1),
            rec("E3", quarter, 2.2),
        ]
        cleaned, _ = clean_panel(ForecastPanel.from_rows(records))
        assert record(cleaned, "E1", quarter, ReleaseKind.FIRST).value == 2.0

    def test_final_tie_break_is_input_order(self):
        quarter = q(2000, 1)
        records = [rec("E1", quarter, 3.0), rec("E1", quarter, 1.0), rec("E1", quarter, 2.0)]
        # Median 2.0: record value 2.0 is closest, kept regardless of position.
        cleaned, _ = clean_panel(ForecastPanel.from_rows(records))
        assert record(cleaned, "E1", quarter, ReleaseKind.FIRST).value == 2.0

    def test_unattributed_records_dropped_and_logged(self):
        records = [rec("", q(2000, 1), 1.0), rec("E1", q(2000, 1), 2.0)]
        cleaned, log = clean_panel(ForecastPanel.from_rows(records))
        assert len(cleaned) == 1
        assert log.entries[0].action is CleaningAction.DROPPED_UNATTRIBUTED

    def test_idempotent(self):
        records = [
            rec("E1", q(2000, 1), 1.0, report_date=date(2000, 4, 1)),
            rec("E1", q(2000, 1), 2.0, report_date=date(2000, 4, 5)),
            rec("E2", q(2000, 1), 3.0),
        ]
        cleaned, _ = clean_panel(ForecastPanel.from_rows(records))
        again, log = clean_panel(cleaned)
        assert len(log) == 0
        assert [r.value for r in rows_of(again)] == [r.value for r in rows_of(cleaned)]

    def test_no_value_invention_and_log_accounts_for_all_records(self):
        records = [
            rec("E1", q(2000, 1), 1.0),
            rec("E1", q(2000, 1), 2.0),
            rec("", q(2000, 2), 5.0),
            rec("E2", q(2000, 2), 3.0),
        ]
        raw = ForecastPanel.from_rows(records)
        cleaned, log = clean_panel(raw)
        assert set(rows_of(cleaned)) <= set(rows_of(raw))
        assert len(cleaned) + log.dropped_count() == len(raw)


class TestCanonicalOrder:
    """Panels are in (release, economist, quarter) order, and analyses reject any other."""

    def test_clean_panel_of_shuffled_lines_is_the_same_canonical_panel(self):
        header, *rows = GOLDEN_FORECASTS.read_text(encoding="utf-8").splitlines(keepends=True)
        first_day = date(2020, 1, 1).toordinal()
        dated = [f"{row[: row.rindex(',')]},{date.fromordinal(first_day + i)}\n" for i, row in enumerate(rows)]
        shuffled = [dated[i] for i in np.random.default_rng(3).permutation(len(dated))]
        cleaned = []
        for lines in (dated, shuffled):
            raw = load_forecasts(io.StringIO("".join([header, *lines])))
            panel, log = clean_panel(raw)
            # Each log entry names a raw row (file order) that carries the key it dropped.
            kept = dict(zip(zip(panel.economist.tolist(), panel.quarter.tolist(), panel.release.tolist()),
                            panel.report_date.tolist()))
            actions = {entry.action for entry in log.entries}
            assert actions == {CleaningAction.DROPPED_DUPLICATE, CleaningAction.DROPPED_UNATTRIBUTED}
            for entry in log.entries:
                key = (int(raw.economist[entry.row]), int(raw.quarter[entry.row]), int(raw.release[entry.row]))
                if entry.action is CleaningAction.DROPPED_UNATTRIBUTED:
                    assert raw.economist_ids[key[0]] == ""
                else:
                    assert kept[key] > raw.report_date[entry.row]
            assert len(panel) + len(log) == len(raw)
            cleaned.append(panel)
        expected, got = cleaned
        assert got.economist_ids == expected.economist_ids
        for column in COLUMNS:
            assert np.array_equal(getattr(got, column), getattr(expected, column)), column
        assert np.array_equal(np.lexsort((got.quarter, got.economist, got.release)), np.arange(len(got)))

    def test_from_rows_sorts_stably_and_load_forecasts_keeps_file_order(self):
        rows = [rec("E2", q(2000, 1), 1.0, ReleaseKind.SECOND), rec("E1", q(2000, 2), 2.0),
                rec("E1", q(2000, 1), 3.0), rec("E1", q(2000, 1), 4.0), rec("E2", q(2000, 1), 5.0)]
        assert [r.value for r in rows_of(ForecastPanel.from_rows(rows))] == [3.0, 4.0, 2.0, 5.0, 1.0]
        csv = "quarter,release,economist_id,firm_id,value,report_date\n" + "".join(
            f"{quarter_label(r.quarter)},{r.release.value},{r.economist_id},F1,{r.value},\n" for r in rows)
        assert [r.value for r in rows_of(load_forecasts(io.StringIO(csv)))] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_for_release_returns_views(self):
        panel = ForecastPanel.from_rows(rec(f"E{e}", q(2000, t), e + t / 10, ReleaseKind(k))
                                        for e in range(3) for t in (1, 2) for k in (1, 2, 3))
        rows = panel.for_release(ReleaseKind.SECOND)
        for column in COLUMNS:
            assert np.shares_memory(getattr(rows, column), getattr(panel, column)), column
        assert rows.release.tolist() == [2] * 6
        assert rows.value.tolist() == [0.1, 0.2, 1.1, 1.2, 2.1, 2.2]

    @pytest.mark.parametrize("analysis", ["baseline", "extract_judgments", "quarter_stats", "accuracy_table",
                                          "build_persistence_dataset"])
    def test_panel_out_of_canonical_order_is_rejected(self, analysis):
        ordered = ForecastPanel.from_rows(
            [rec("E1", q(2000, 1), 1.0), rec("E1", q(2000, 2), 2.0), rec("E2", q(2000, 1), 3.0)])
        base = baseline(ordered, ReleaseKind.FIRST)
        actuals = series_from({q(2000, 1): 1.0, q(2000, 2): 2.0})
        run = {
            "baseline": lambda panel: baseline(panel, ReleaseKind.FIRST),
            "extract_judgments": lambda panel: extract_judgments(panel, base),
            "quarter_stats": lambda panel: quarter_stats(panel, actuals, ReleaseKind.FIRST),
            "accuracy_table": lambda panel: accuracy_table(panel, base, actuals),
            "build_persistence_dataset": lambda panel: build_persistence_dataset(
                {ReleaseKind.FIRST: JudgmentPanel(ReleaseKind.FIRST, panel, panel.value, panel.value == 0.0)},
                ReleaseKind.FIRST, "own_lag"),
        }[analysis]
        run(ordered)
        for order in ([1, 0, 2], [0, 2, 1]):  # a quarter out of order, then an economist
            with pytest.raises(ValueError, match="order"):
                run(ordered.take(np.array(order)))


class TestParticipationShare:
    """The share's quarters are the release's first to last quarter in the panel; E2 fixes that span here."""

    def test_half_coverage(self):
        quarters = [q(2000, 1) + i for i in range(46)]
        span = [rec("E2", q(2000, 1), 1.0), rec("E2", q(2022, 4), 1.0)]  # 92 quarters
        panel = ForecastPanel.from_rows([rec("E1", quarter, 1.0) for quarter in quarters] + span)
        assert participation_share(panel, ReleaseKind.FIRST)[0] == 0.5

    def test_unknown_economist_is_zero(self):
        # EX forecasts only the second release, so it has no first-release record.
        panel = ForecastPanel.from_rows(
            [rec("E1", q(2000, 1), 1.0), rec("EX", q(2000, 1), 1.0, ReleaseKind.SECOND)]
        )
        shares = participation_share(panel, ReleaseKind.FIRST)
        assert shares[panel.economist_ids.index("EX")] == 0.0

    def test_full_coverage(self):
        quarters = [q(2000, 1) + i for i in range(4)]
        panel = ForecastPanel.from_rows([rec("E1", quarter, 1.0) for quarter in quarters])
        assert participation_share(panel, ReleaseKind.FIRST)[0] == 1.0

    def test_monotone_in_records(self):
        span = [rec("E2", q(2000, 1), 1.0), rec("E2", q(2000, 4), 1.0)]
        small = ForecastPanel.from_rows([rec("E1", q(2000, 1), 1.0)] + span)
        large = ForecastPanel.from_rows([rec("E1", q(2000, 1), 1.0), rec("E1", q(2000, 2), 1.0)] + span)
        assert participation_share(small, ReleaseKind.FIRST)[0] < participation_share(large, ReleaseKind.FIRST)[0]


class TestJointCoverage:
    def test_single_pair(self):
        panel = ForecastPanel.from_rows(
            [rec("E1", q(2000, 1), 1.0, ReleaseKind.FIRST), rec("E1", q(2000, 1), 1.1, ReleaseKind.SECOND)]
        )
        cov = joint_coverage(panel)
        assert (cov.pair_12, cov.pair_13, cov.pair_23, cov.all_three) == (1, 0, 0, 0)

    def test_all_three(self):
        panel = ForecastPanel.from_rows(
            [rec("E1", q(2000, 1), 1.0, ReleaseKind(k)) for k in (1, 2, 3)]
        )
        cov = joint_coverage(panel)
        assert (cov.pair_12, cov.pair_13, cov.pair_23, cov.all_three) == (1, 1, 1, 1)

    def test_empty_panel(self):
        cov = joint_coverage(ForecastPanel.from_rows([]))
        assert (cov.pair_12, cov.pair_13, cov.pair_23, cov.all_three) == (0, 0, 0, 0)

    def test_triple_count_bounded_by_pairs(self):
        panel = ForecastPanel.from_rows(
            [rec("E1", q(2000, 1), 1.0, ReleaseKind(k)) for k in (1, 2, 3)]
            + [rec("E2", q(2000, 1), 1.0, ReleaseKind.FIRST), rec("E2", q(2000, 1), 1.0, ReleaseKind.SECOND)]
        )
        cov = joint_coverage(panel)
        assert cov.all_three <= min(cov.pair_12, cov.pair_13, cov.pair_23)
