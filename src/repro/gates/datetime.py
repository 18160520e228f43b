"""Calendar gates.

``EXTRACT(YEAR FROM date)`` is nonlinear over the days-since-epoch
encoding, so it is proven with a fixed lookup table of year boundaries:
the prover supplies the year (plus the year's day range) as advice, a
lookup pins the triple to the public calendar table, and two
comparisons place the date inside the range.
"""

from __future__ import annotations

import datetime

from repro.db.types import (
    DATE_END,
    FIRST_YEAR,
    LAST_YEAR,
    date_to_int,
    int_to_date,
)
from repro.gates.compare import AssertLeChip, AssertLtChip
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Expression

_FIRST_DAY = date_to_int(datetime.date(FIRST_YEAR, 1, 1))


class YearChip:
    """Proves ``year == EXTRACT(YEAR FROM date)`` on selector-gated rows."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        date: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self.year: Column = cs.advice_column(f"{name}.year")
        self.start: Column = cs.advice_column(f"{name}.start")
        self.end: Column = cs.advice_column(f"{name}.end")
        self.t_year: Column = cs.fixed_column(f"{name}.t_year")
        self.t_start: Column = cs.fixed_column(f"{name}.t_start")
        self.t_end: Column = cs.fixed_column(f"{name}.t_end")
        cs.add_lookup(
            f"{name}.calendar",
            [q * self.year.cur(), q * self.start.cur(), q * self.end.cur()],
            [self.t_year.cur(), self.t_start.cur(), self.t_end.cur()],
        )
        # Where q is 1 the triple is a row of the calendar table.
        cs.declare_bound(self.year, LAST_YEAR)
        cs.declare_bound(self.start, DATE_END)
        cs.declare_bound(self.end, DATE_END)
        self._ge = AssertLeChip(
            cs, f"{name}.ge", q, self.start.cur(), date, table, n_limbs
        )
        self._lt = AssertLtChip(
            cs, f"{name}.lt", q, date, self.end.cur(), table, n_limbs
        )

    @staticmethod
    def table_rows() -> int:
        """Rows of the calendar table: one per supported year."""
        return LAST_YEAR - FIRST_YEAR + 1

    def assign_table(self, asg: Assignment) -> None:
        """Fill the calendar table (one row per supported year)."""
        row = 0
        for year in range(FIRST_YEAR, LAST_YEAR + 1):
            start = date_to_int(datetime.date(year, 1, 1))
            end = date_to_int(datetime.date(year + 1, 1, 1))
            asg.assign(self.t_year, row, year)
            asg.assign(self.t_start, row, start)
            asg.assign(self.t_end, row, end)
            row += 1

    def assign_row(self, asg: Assignment, row: int, days: int) -> int:
        if not _FIRST_DAY <= days < DATE_END:
            raise ValueError(
                f"date {days} (days since epoch) outside the calendar "
                f"table {FIRST_YEAR}..{LAST_YEAR}"
            )
        year = int_to_date(days).year
        start = date_to_int(datetime.date(year, 1, 1))
        end = date_to_int(datetime.date(year + 1, 1, 1))
        asg.assign(self.year, row, year)
        asg.assign(self.start, row, start)
        asg.assign(self.end, row, end)
        self._ge.assign_row(asg, row, start, days)
        self._lt.assign_row(asg, row, days, end)
        return year
