"""Calendar quarters and data-release vintages.

A quarter is its index, year * 4 + quarter - 1, so index order is calendar order and a lag is a subtraction; its
``YYYYQn`` text exists only in files and messages (``parse_quarter``, ``quarter_label``).  Releases index the
successive official estimates (first, second, third) of the same quarter's growth rate.
"""
from __future__ import annotations

import re
from enum import IntEnum

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


def parse_quarter(text: str) -> int:
    """The index of a ``YYYYQn`` token.

    Raises QuarterParseError naming the offending token.
    """
    match = _QUARTER_RE.match(text.strip())
    if match is None:
        raise QuarterParseError(f"malformed quarter token: {text!r}")
    return int(match.group(1)) * 4 + int(match.group(2)) - 1


def quarter_label(index: int) -> str:
    """The ``YYYYQn`` text of a quarter index."""
    return f"{index // 4}Q{index % 4 + 1}"
