"""Aggregation gates (paper section 4.5).

``SUM``/``COUNT`` use the running column ``M`` of the paper's Figure 5:
``M_i = same_i * M_{i-1} + v_i`` -- within a bin the sum accumulates, at
a bin boundary it restarts.  The bin's final value sits on the bin-end
row, from which :class:`CompactChip` moves results into a dense output
region (the paper's output column ``O``) with one shuffle.

``AVG`` is exact integer division with remainder (:class:`DivModChip`),
``MIN``/``MAX`` read bin boundaries of a value-sorted relation, and
``STDDEV``/``VARIANCE`` combine sum-of-squares running columns with
:class:`DivModChip` and :class:`SqrtChip` (integer square root).
"""

from __future__ import annotations

from typing import Sequence

from repro.gates.compare import AssertLeChip, AssertLtChip
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import ColumnQuery, Constant, Expression


def _rotate(expr: Expression, by: int) -> Expression:
    """Rotate a plain column reference; compound expressions would need
    per-node rotation, which no chip requires yet."""
    if isinstance(expr, ColumnQuery):
        return ColumnQuery(expr.column, expr.rotation + by)
    raise TypeError("can only rotate a direct column query")


class RunningAggChip:
    """The running-aggregate column ``M`` over group-by bins.

    ``M_i = same_i * M_{i-1} + value_i`` with ``M_0 = value_0``; pass
    ``value = Constant(1)`` gated by validity for ``COUNT``.  ``rows``
    is how many rows the two selectors cover between them: with ``same``
    a proven flag, induction over the gate gives ``M <= rows *
    bound(value)``, which is declared.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q_first: Expression,
        q_rest: Expression,
        same: Expression,
        value: Expression,
        rows: int | None = None,
    ):
        self.m: Column = cs.advice_column(f"{name}.m")
        cs.create_gate(
            name,
            [
                q_first * (self.m.cur() - value),
                q_rest * (self.m.cur() - same * self.m.prev() - value),
            ],
        )
        step = value.upper_bound(cs.bounds)
        if rows is not None and step is not None and same.upper_bound(cs.bounds) == 1:
            cs.declare_bound(self.m, rows * step)

    def assign(
        self, asg: Assignment, values: Sequence[int], same_flags: Sequence[int]
    ) -> list[int]:
        """Fill M given per-row values and same-as-previous flags;
        returns the running values."""
        running: list[int] = []
        acc = 0
        for i, (value, same) in enumerate(zip(values, same_flags)):
            acc = (acc * same + value) if i else value
            asg.assign(self.m, i, acc)
            running.append(acc)
        return running


class CompactChip:
    """Move flagged rows into a dense prefix (the paper's output column
    O, "copying only the last record of each group-by bin, as indicated
    by the E column").

    One shuffle argument proves the multiset of flagged tuples equals
    the multiset of output tuples gated by the density flag.  The
    density flag is *advice* constrained to be a boolean prefix
    (1...10...0), so intermediate cardinalities stay hidden -- only the
    final result's cardinality becomes public, through the instance
    binding.  ``q_all`` is the fixed all-active-rows selector.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        flag: Expression,
        values: Sequence[Expression],
        q_all: Expression,
    ):
        self.q_out: Column = cs.advice_column(f"{name}.q_out")
        self.out: list[Column] = [
            cs.advice_column(f"{name}.out{i}") for i in range(len(values))
        ]
        q = self.q_out
        q_all_next = _rotate(q_all, 1)
        cs.create_gate(
            f"{name}.density",
            [
                # boolean on active rows
                q_all * q.cur() * (Constant(1) - q.cur()),
                # prefix property: a 1 may not follow a 0 (guarded away
                # from the blinding-row wrap by requiring q_all at both
                # the current and the next row)
                q_all * q_all_next * q.next() * (Constant(1) - q.cur()),
            ],
        )
        inputs = [flag] + [flag * v for v in values]
        table = [q.cur()] + [q.cur() * col.cur() for col in self.out]
        cs.add_shuffle(f"{name}.compact", [inputs], [table])
        # Where q_out is 1 the output tuple is one of the flagged ones.
        cs.declare_bound(q, 1)
        for col, expr in zip(self.out, inputs[1:]):
            cs.declare_bound(col, expr.upper_bound(cs.bounds))

    def assign(
        self, asg: Assignment, rows: Sequence[Sequence[int]]
    ) -> None:
        """Write the selected tuples (in any order) into rows 0..r-1."""
        for i, row in enumerate(rows):
            asg.assign(self.q_out, i, 1)
            for col, value in zip(self.out, row):
                asg.assign(col, i, value)


class DivModChip:
    """Exact integer division: ``dividend = quot * divisor + rem`` with
    ``rem < divisor`` (the comparison uses lookup-table limbs, so SQL's
    integer/fixed-point division stays low degree)."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        dividend: Expression,
        divisor: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self.quot: Column = cs.advice_column(f"{name}.quot")
        self.rem: Column = cs.advice_column(f"{name}.rem")
        cs.create_gate(
            name,
            [q * (self.quot.cur() * divisor + self.rem.cur() - dividend)],
        )
        self._lt = AssertLtChip(
            cs, f"{name}.rem_lt", q, self.rem.cur(), divisor, table, n_limbs
        )

    def assign_row(
        self, asg: Assignment, row: int, dividend: int, divisor: int
    ) -> tuple[int, int]:
        if divisor <= 0:
            raise ValueError("division by zero or negative divisor")
        quot, rem = divmod(dividend, divisor)
        asg.assign(self.quot, row, quot)
        asg.assign(self.rem, row, rem)
        self._lt.assign_row(asg, row, rem, divisor)
        return quot, rem


class AvgChip:
    """``AVG = SUM / COUNT`` scaled by a fixed-point factor.

    ``avg = floor(sum * scale / count)`` -- exactness is guaranteed by
    the division-with-remainder constraints.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        sum_expr: Expression,
        count_expr: Expression,
        table: RangeTable,
        n_limbs: int = 8,
        scale: int = 1,
    ):
        self.scale = scale
        self._div = DivModChip(
            cs, name, q, sum_expr * scale, count_expr, table, n_limbs
        )
        self.avg: Column = self._div.quot

    def assign_row(
        self, asg: Assignment, row: int, total: int, count: int
    ) -> int:
        quot, _ = self._div.assign_row(asg, row, total * self.scale, count)
        return quot


class MinMaxChip:
    """MIN/MAX per group via sorting (paper: "MAX and MIN gates are
    facilitated by a sorting mechanism").

    Given a relation sorted by (group key, value), the bin-start row
    holds the group's MIN and the bin-end row its MAX; this chip simply
    names those selections so compilers can compact them out.
    """

    def __init__(
        self,
        start: Expression,
        end: Expression,
        value: Expression,
    ):
        self.min_flag = start
        self.max_flag = end
        self.min_select: Expression = start * value
        self.max_select: Expression = end * value


class SqrtChip:
    """Integer square root: ``s = floor(sqrt(x))`` via
    ``s^2 <= x < (s+1)^2`` (two limb-decomposed comparisons).  Used by
    the STDDEV aggregate."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        x: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self.s: Column = cs.advice_column(f"{name}.s")
        s = self.s.cur()
        self._le = AssertLeChip(cs, f"{name}.lo", q, s * s, x, table, n_limbs)
        self._lt = AssertLtChip(
            cs,
            f"{name}.hi",
            q,
            x,
            s * s + 2 * s + Constant(1),
            table,
            n_limbs,
        )

    def assign_row(self, asg: Assignment, row: int, x: int) -> int:
        import math

        s = math.isqrt(x)
        asg.assign(self.s, row, s)
        self._le.assign_row(asg, row, s * s, x)
        self._lt.assign_row(asg, row, x, (s + 1) * (s + 1))
        return s
