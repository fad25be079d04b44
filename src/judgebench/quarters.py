"""Calendar quarters and data-release vintages.

Quarters are the panel's time index; releases index the successive official
estimates (first, second, third) of the same quarter's growth rate.
"""
from __future__ import annotations

import re
from enum import IntEnum
from typing import Iterator

from .errors import QuarterParseError

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


class ReleaseKind(IntEnum):
    """The k'th official estimate of a quarter's growth rate."""

    FIRST = 1
    SECOND = 2
    THIRD = 3

    @property
    def prior(self) -> "ReleaseKind | None":
        """The preceding release, or None for the first."""
        if self is ReleaseKind.FIRST:
            return None
        return ReleaseKind(self.value - 1)

    @classmethod
    def from_token(cls, token: str) -> "ReleaseKind":
        try:
            return cls(int(token))
        except (ValueError, KeyError) as exc:
            raise QuarterParseError(f"invalid release token: {token!r}") from exc


class Quarter:
    """A calendar quarter; equality, hashing and ordering are by (year, quarter)."""

    __slots__ = ("year", "quarter")

    def __init__(self, year: int, quarter: int):
        if quarter not in (1, 2, 3, 4):
            raise QuarterParseError(f"quarter must be in 1..4, got {quarter}")
        self.year, self.quarter = year, quarter

    def __eq__(self, other) -> bool:
        return isinstance(other, Quarter) and self.index == other.index

    def __lt__(self, other: "Quarter") -> bool:
        return self.index < other.index

    def __le__(self, other: "Quarter") -> bool:
        return self.index <= other.index

    def __hash__(self) -> int:
        return hash(self.index)

    def __repr__(self) -> str:
        return f"Quarter({self.year}, {self.quarter})"

    @property
    def index(self) -> int:
        """Number of quarters since 0Q1; supports lag arithmetic."""
        return self.year * 4 + (self.quarter - 1)

    @classmethod
    def from_index(cls, index: int) -> "Quarter":
        return cls(index // 4, index % 4 + 1)

    def successor(self) -> "Quarter":
        return Quarter.from_index(self.index + 1)

    def predecessor(self) -> "Quarter":
        return Quarter.from_index(self.index - 1)

    def shifted(self, offset: int) -> "Quarter":
        return Quarter.from_index(self.index + offset)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


def parse_quarter(text: str) -> Quarter:
    """Parse a ``YYYYQn`` token into a Quarter.

    Raises QuarterParseError naming the offending token.
    """
    match = _QUARTER_RE.match(text.strip())
    if match is None:
        raise QuarterParseError(f"malformed quarter token: {text!r}")
    return Quarter(int(match.group(1)), int(match.group(2)))


def quarter_range(first: Quarter, last: Quarter) -> Iterator[Quarter]:
    """All quarters from first through last, inclusive."""
    if last < first:
        raise ValueError(f"empty quarter range: {first}..{last}")
    for idx in range(first.index, last.index + 1):
        yield Quarter.from_index(idx)
