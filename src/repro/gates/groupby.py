"""The group-by gate (paper section 4.3).

Operates on a relation already sorted by the grouping key (compose with
:class:`~repro.gates.sort.SortChip`).  Produces the boundary indicator
columns of the paper's Figure 5:

- ``same``: 1 when the row's key equals the previous row's key
  (the equality constraint of Equations 6-7, via the inverse trick),
- ``start = 1 - same`` and ``end`` (last row of each bin),

which downstream aggregation chips
(:mod:`repro.gates.aggregate`) consume.
"""

from __future__ import annotations

from typing import Sequence

from repro.gates.compare import IsZeroChip
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Constant, Expression


class GroupByChip:
    """Boundary detection over a sorted key column."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        key: Expression,
        key_prev: Expression,
    ):
        """``key``/``key_prev`` are the grouping key at the current and
        previous row (typically ``col.cur()`` and ``col.prev()``)."""
        self.name = name
        #: 1 on the first data row.
        self.q_first: Column = cs.fixed_column(f"{name}.q_first")
        #: 1 on data rows 1..m-1.
        self.q_rest: Column = cs.fixed_column(f"{name}.q_rest")
        #: 1 on the last data row.
        self.q_last: Column = cs.fixed_column(f"{name}.q_last")
        self.same: Column = cs.advice_column(f"{name}.same")
        self.end: Column = cs.advice_column(f"{name}.end")

        # same = eq(key, key_prev) on rows 1.., forced to 0 on row 0.
        self._eq = IsZeroChip(
            cs, f"{name}.eq", self.q_rest.cur(), key - key_prev
        )
        cs.create_gate(
            f"{name}.same",
            [
                self.q_first.cur() * self.same.cur(),
                self.q_rest.cur() * (self.same.cur() - self._eq.is_zero_expr),
            ],
        )
        # end_i = 1 - same_{i+1} on non-final data rows; end = 1 on the
        # last data row.  q_rest at rotation +1 marks non-final rows.
        cs.create_gate(
            f"{name}.end",
            [
                self.q_rest.next()
                * (self.end.cur() - (Constant(1) - self.same.next())),
                self.q_last.cur() * (self.end.cur() - Constant(1)),
            ],
        )

        # q_first and q_rest (q_rest.next() and q_last) between them
        # cover every data row, and an is-zero flag is 0 or 1.
        cs.declare_bound(self.same, 1)
        cs.declare_bound(self.end, 1)

    @property
    def start_expr(self) -> Expression:
        """1 at the first row of each bin."""
        return Constant(1) - self.same.cur()

    @property
    def end_expr(self) -> Expression:
        return self.end.cur()

    def assign(
        self, asg: Assignment, keys: Sequence[int]
    ) -> list[tuple[int, int]]:
        """Assign indicators for the sorted ``keys``; returns the bins
        as (start_row, end_row) inclusive pairs."""
        m = len(keys)
        if m == 0:
            return []
        asg.assign(self.q_first, 0, 1)
        asg.assign(self.q_last, m - 1, 1)
        asg.assign(self.same, 0, 0)
        self._eq.assign_row(asg, 0, 1)  # inactive row; any nonzero diff hint
        bins: list[tuple[int, int]] = []
        bin_start = 0
        for i in range(1, m):
            asg.assign(self.q_rest, i, 1)
            same = self._eq.assign_row(asg, i, keys[i] - keys[i - 1])
            asg.assign(self.same, i, same)
            if not same:
                bins.append((bin_start, i - 1))
                bin_start = i
        bins.append((bin_start, m - 1))
        for start, end in bins:
            asg.assign(self.end, end, 1)
        return bins
