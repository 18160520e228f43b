"""SQL value types and their integer semantics.

Following the paper's evaluation setup ("we converted all floating
point operations to 64-bit integer ones"), every SQL value is
represented as a nonnegative integer inside the circuit:

- ``INT``: the value itself (must be >= 0; TPC-H has no negatives),
- ``DECIMAL``: fixed-point, scaled by 100 (two digits),
- ``DATE``: days since 1970-01-01 (always >= 1 for TPC-H dates),
- ``STRING``: dictionary code >= 1, assigned in lexicographic order so
  code comparisons realize string ORDER BY.

Multiplying two DECIMALs multiplies the scales; the planner tracks the
scale of every expression so results decode correctly.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

#: Fixed-point scale for DECIMAL columns (two fractional digits).
DECIMAL_SCALE = 100

_EPOCH = datetime.date(1970, 1, 1)


class SqlType(enum.Enum):
    INT = "int"
    DECIMAL = "decimal"
    DATE = "date"
    STRING = "string"


@dataclass(frozen=True)
class ColumnType:
    """A type plus its fixed-point scale (1 for non-decimals)."""

    base: SqlType

    @property
    def scale(self) -> int:
        return DECIMAL_SCALE if self.base is SqlType.DECIMAL else 1


INT = ColumnType(SqlType.INT)
DECIMAL = ColumnType(SqlType.DECIMAL)
DATE = ColumnType(SqlType.DATE)
STRING = ColumnType(SqlType.STRING)


def date_to_int(value: datetime.date | str) -> int:
    """Encode a date as days since the epoch."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    days = (value - _EPOCH).days
    if days < 1:
        raise ValueError(f"dates before 1970-01-02 unsupported: {value}")
    return days


def int_to_date(days: int) -> datetime.date:
    return _EPOCH + datetime.timedelta(days=days)


#: The calendar the circuits reason about: ``EXTRACT(YEAR ...)`` looks a
#: date up in a table with one row per year, and every committed DATE
#: cell lies before :data:`DATE_END` (the commitment contract,
#: :func:`repro.db.encoding.column_bound`).
FIRST_YEAR = 1971
LAST_YEAR = 2099
DATE_END = date_to_int(datetime.date(LAST_YEAR + 1, 1, 1))


def decimal_to_int(value: float | int) -> int:
    """Fixed-point encode with two digits (banker's issues avoided by
    round-half-away handled upstream; TPC-H generates exact cents)."""
    scaled = round(value * DECIMAL_SCALE)
    if scaled < 0:
        raise ValueError(f"negative decimals unsupported: {value}")
    return int(scaled)


def int_to_decimal(value: int, scale: int = DECIMAL_SCALE) -> float:
    return value / scale
