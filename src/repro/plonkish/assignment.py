"""Concrete cell assignments for a circuit.

An :class:`Assignment` is the witness matrix: one list of field values
per column, ``n_rows`` long, where ``n_rows`` is a power of two.  The
last :data:`ZK_ROWS` rows are reserved for blinding -- gates must be
selector-disabled there, lookups and shuffles may not touch them, and
the prover fills advice cells there with fresh randomness before
committing (this is where the zero-knowledge property of the opened
evaluations comes from, exactly as in Halo2).
"""

from __future__ import annotations

from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.constraint_system import Column, ColumnKind, ConstraintSystem
from repro.plonkish.expression import Expression

#: Rows reserved at the bottom of every column for blinding factors.
#: One extra row is consumed conceptually by the final running-product
#: slot of the grand-product and lookup arguments.
ZK_ROWS = 4


class Assignment:
    """The value matrix for one concrete instance of a circuit."""

    def __init__(self, cs: ConstraintSystem, k: int):
        self.cs = cs
        self.k = k
        self.n_rows = 1 << k
        self.usable_rows = self.n_rows - ZK_ROWS
        if self.usable_rows <= 0:
            raise ValueError(f"circuit with 2^{k} rows has no usable rows")
        self.fixed: list[list[int]] = [
            [0] * self.n_rows for _ in cs.fixed_columns
        ]
        self.advice: list[list[int]] = [
            [0] * self.n_rows for _ in cs.advice_columns
        ]
        self.instance: list[list[int]] = [
            [0] * self.n_rows for _ in cs.instance_columns
        ]
        #: kind -> matrix, so a cell access is one dict lookup
        #: (:meth:`evaluate` reads a cell per column query).
        self._matrices = {
            ColumnKind.FIXED: self.fixed,
            ColumnKind.ADVICE: self.advice,
            ColumnKind.INSTANCE: self.instance,
        }
        #: advice column indices whose blinding rows were set explicitly
        #: (database scans replay the committed tail; see
        #: repro.db.commitment).
        self._pinned_tails: set[int] = set()

    # -- assignment ------------------------------------------------------------

    def values_of(self, column: Column) -> list[int]:
        """The column's cells, all ``n_rows`` of them: the matrix's own
        list, to read, not to write."""
        return self._matrices[column.kind][column.index]

    def assign(self, column: Column, row: int, value: int) -> None:
        if not 0 <= row < self.usable_rows:
            raise IndexError(
                f"row {row} outside usable range [0, {self.usable_rows})"
            )
        self.values_of(column)[row] = value % SCALAR_FIELD.p

    def assign_column(self, column: Column, values: list[int]) -> None:
        """Assign a column from row 0; remaining usable rows keep 0."""
        if len(values) > self.usable_rows:
            raise ValueError(
                f"{len(values)} values exceed usable rows {self.usable_rows}"
            )
        p = SCALAR_FIELD.p
        self.values_of(column)[: len(values)] = [v % p for v in values]

    def value(self, column: Column, row: int) -> int:
        return self.values_of(column)[row % self.n_rows]

    def query(self, column: Column, row: int, rotation: int) -> int:
        """Rotation-aware cell read with wrap-around (the evaluation
        domain is cyclic, so rotations wrap as ``omega^n = 1``)."""
        return self.values_of(column)[(row + rotation) % self.n_rows]

    def evaluate(self, expr: Expression, row: int) -> int:
        """``expr`` at ``row``, reading every column query from this
        assignment -- the cell-by-cell evaluator: MockProver checks with
        it and the query compiler computes every witness cell with it.
        (The prover runs the verifying key's compiled program over
        whole columns instead: :mod:`repro.proving.evaluation`.)"""
        return expr.evaluate(
            lambda column, rotation: self.query(column, row, rotation),
            SCALAR_FIELD.p,
        )

    def assign_tail(self, column: Column, tail: list[int]) -> None:
        """Pin an advice column's blinding rows to explicit values.

        Database scans use this to replay the randomness baked into the
        column's commitment, so the scan-link check (commitment delta)
        stays exact.  ``fill_blinding`` will leave these rows alone.
        """
        if column.kind is not ColumnKind.ADVICE:
            raise ValueError("only advice columns carry blinding tails")
        blinding_rows = self.n_rows - self.usable_rows
        if len(tail) != blinding_rows:
            raise ValueError(f"tail must have {blinding_rows} entries")
        storage = self.advice[column.index]
        p = SCALAR_FIELD.p
        for offset, value in enumerate(tail):
            storage[self.usable_rows + offset] = value % p
        self._pinned_tails.add(column.index)

    def fill_blinding(self) -> None:
        """Randomize advice cells in the reserved blinding rows (except
        columns whose tails were pinned with :meth:`assign_tail`)."""
        for index, col_values in enumerate(self.advice):
            if index in self._pinned_tails:
                continue
            for row in range(self.usable_rows, self.n_rows):
                col_values[row] = SCALAR_FIELD.rand()

    def instance_values(self, column: Column) -> list[int]:
        if column.kind is not ColumnKind.INSTANCE:
            raise ValueError("not an instance column")
        return list(self.instance[column.index])
