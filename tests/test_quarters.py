import pytest

from judgebench.errors import QuarterParseError
from judgebench.quarters import ReleaseKind, parse_quarter, quarter_label


class TestParseQuarter:
    def test_parses_standard_token(self):
        assert parse_quarter("2000Q1") == 8000

    def test_parses_fourth_quarter(self):
        assert parse_quarter("2022Q4") == 2022 * 4 + 3

    def test_rejects_out_of_range_quarter(self):
        with pytest.raises(QuarterParseError):
            parse_quarter("2022Q5")

    def test_error_names_the_offending_token(self):
        with pytest.raises(QuarterParseError, match="20x2Q1"):
            parse_quarter("20x2Q1")

    def test_rejects_malformed_text(self):
        for bad in ("2000", "Q1", "2000-Q1", "2000Q0", ""):
            with pytest.raises(QuarterParseError):
                parse_quarter(bad)


class TestQuarterIndex:
    def test_index_order_is_calendar_order_across_a_year(self):
        tokens = ["1999Q3", "1999Q4", "2000Q1", "2000Q2"]
        indexes = [parse_quarter(token) for token in tokens]
        assert indexes == list(range(indexes[0], indexes[0] + 4))

    def test_label_round_trips_across_years(self):
        for index in range(parse_quarter("1998Q2"), parse_quarter("2003Q3") + 1):
            assert parse_quarter(quarter_label(index)) == index

    def test_label_text(self):
        assert quarter_label(parse_quarter("2007Q2")) == "2007Q2"
        assert quarter_label(8003) == "2000Q4"


class TestReleaseKind:
    def test_prior_chain(self):
        assert ReleaseKind.SECOND.prior is ReleaseKind.FIRST
        assert ReleaseKind.THIRD.prior is ReleaseKind.SECOND
        assert ReleaseKind.FIRST.prior is None

    def test_from_token(self):
        assert ReleaseKind.from_token("2") is ReleaseKind.SECOND
        with pytest.raises(QuarterParseError):
            ReleaseKind.from_token("4")
