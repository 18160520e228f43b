"""The sort gate (paper section 4.2).

Two properties are enforced, exactly as in the paper:

1. **Permutation integrity** (Equation 5): the output rows are a
   permutation of the input rows -- one shuffle (grand-product) argument
   over the full row tuples.
2. **Sortedness**: ``R_i <= R_{i+1}`` on adjacent data rows, via the
   limb-decomposed comparison of section 4.1 ("proving the transformed
   statement introduced in Equation 4 with the assistance of lookup
   tables").

Multi-attribute ordering uses a composite key: the caller concatenates
attributes into a single fixed-bit-width key expression (the paper's
"consistent bit-length representation ... 64-bit format"), built with
:meth:`SortChip.composite_key`.
"""

from __future__ import annotations

from typing import Sequence

from repro.gates.compare import AssertLeChip
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Expression


class SortChip:
    """Sorts a relation of ``len(in_exprs)`` columns by the column at
    ``key_index``.

    ``in_exprs`` must evaluate to all-zero tuples on rows that carry no
    data (gate them with a validity selector); the chip's output columns
    replicate that padding so the permutation argument balances.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        in_exprs: Sequence[Expression],
        key_index: int,
        table: RangeTable,
        n_limbs: int = 8,
        descending: bool = False,
    ):
        if not 0 <= key_index < len(in_exprs):
            raise ValueError("key_index out of range")
        self.name = name
        self.key_index = key_index
        self.descending = descending
        self.out: list[Column] = [
            cs.advice_column(f"{name}.out{i}") for i in range(len(in_exprs))
        ]
        cs.add_shuffle(
            f"{name}.perm",
            [list(in_exprs)],
            [[col.cur() for col in self.out]],
        )
        # Every output tuple is one of the input tuples.
        for col, expr in zip(self.out, in_exprs):
            cs.declare_bound(col, expr.upper_bound(cs.bounds))
        self.q_pair: Column = cs.fixed_column(f"{name}.q_pair")
        key = self.out[key_index]
        lhs, rhs = key.cur(), key.next()
        if descending:
            lhs, rhs = rhs, lhs
        self._le = AssertLeChip(
            cs, f"{name}.sorted", self.q_pair.cur(), lhs, rhs, table, n_limbs
        )

    def assign(
        self, asg: Assignment, rows: Sequence[Sequence[int]]
    ) -> list[tuple[int, ...]]:
        """Sort ``rows`` (each a tuple matching ``in_exprs``), assign
        the output columns and sortedness witnesses, and return the
        sorted rows.

        The caller guarantees ``rows`` equals the multiset the input
        expressions evaluate to on data rows (the shuffle enforces it).
        """
        m = len(rows)
        if m > asg.usable_rows:
            raise ValueError("more rows than the circuit can hold")
        sorted_rows = sorted(
            (tuple(r) for r in rows),
            key=lambda r: r[self.key_index],
            reverse=self.descending,
        )
        for i, row in enumerate(sorted_rows):
            for col, value in zip(self.out, row):
                asg.assign(col, i, value)
        for i in range(m - 1):
            asg.assign(self.q_pair, i, 1)
            lhs = sorted_rows[i][self.key_index]
            rhs = sorted_rows[i + 1][self.key_index]
            if self.descending:
                lhs, rhs = rhs, lhs
            self._le.assign_row(asg, i, lhs, rhs)
        return sorted_rows

    @staticmethod
    def composite_key(values: Sequence[int], bits_per_attr: int = 32) -> int:
        """Pack attribute values into one integer preserving
        lexicographic order (first attribute most significant)."""
        key = 0
        bound = 1 << bits_per_attr
        for v in values:
            if not 0 <= v < bound:
                raise ValueError(
                    f"attribute {v} does not fit in {bits_per_attr} bits"
                )
            key = (key << bits_per_attr) | v
        return key
