"""Exception types shared across the package."""


class JudgebenchError(Exception):
    """Base class for all package-specific errors."""


class QuarterParseError(JudgebenchError, ValueError):
    """Malformed quarter token."""


class IngestionError(JudgebenchError, ValueError):
    """Invalid or inconsistent input data."""


class EstimationError(JudgebenchError, ValueError):
    """A regression or test could not be computed."""


class RankDeficiencyError(EstimationError):
    """Design matrix has linearly dependent columns."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design column {column} is linearly dependent on earlier columns")
