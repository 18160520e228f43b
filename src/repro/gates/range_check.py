"""Range check gates (paper section 4.1, Designs A-C, plus the naive
encoding the paper rejects -- kept for the ablation benchmark).

Designs A and B (single and batched membership in a lookup table) map
directly onto the proving system's lookup argument:
:func:`assert_member` is the whole gate.  The *relation* proved is the
paper's -- every input value occurs in the table -- but the argument
underneath is a named substitution (DESIGN.md section 2): where the
paper sorts the inputs into ``P'``, aligns a permutation ``Q'`` of the
table and enforces ``P'_i = Q'_i or P'_i = P'_{i-1}`` (Equation 1) with
grand-product permutation checks (Equations 2-3), this implementation
proves ``sum_i 1 / (beta + input_i) = sum_j m_j / (beta + table_j)``
with a committed multiplicity column ``m`` (DESIGN.md, "The lookup
argument").  Batching (Design B) goes further than in the paper: one
argument covers every row of *every* lookup into the same table.

Design C (bitwise decomposition into u8 cells validated against a
256-entry table) is :class:`RangeDecomposeChip`.
"""

from __future__ import annotations

from repro.gates.compare import _Decomposition
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import ConstraintSystem
from repro.plonkish.expression import Constant, Expression


def assert_member(
    cs: ConstraintSystem,
    name: str,
    input_expr: Expression,
    table_expr: Expression,
) -> None:
    """Designs A/B: every row's ``input_expr`` value must appear in the
    column of ``table_expr`` values.

    Gate the input with a selector (``q * value``) so that inactive rows
    contribute 0 -- unassigned table rows also read 0, so the padding
    matches automatically.
    """
    cs.add_lookup(name, [input_expr], [table_expr])


class RangeDecomposeChip:
    """Design C: prove ``value in [0, 2^(bits*n_limbs))`` by limb
    decomposition against a reusable fixed table.

    The constraint count matches the paper's analysis: ``n_limbs``
    lookups plus one recomposition constraint per row.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        value: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self._decomp = _Decomposition(cs, name, q, value, table, n_limbs)
        self.total_bits = self._decomp.total_bits

    def assign_row(self, asg: Assignment, row: int, value: int) -> None:
        self._decomp.assign_row(asg, row, value)

    def assign_inactive(self, asg: Assignment, row: int) -> None:
        self._decomp.assign_inactive(asg, row)


class NaiveRangeCheckChip:
    """The encoding the paper rejects: ``prod_{i=0}^{t} (value - i) = 0``.

    Constraint degree is ``t + 2`` -- the extended evaluation domain (and
    hence prover time) grows linearly with the bound ``t``, which is why
    this is "computationally infeasible for large t".  Exists solely for
    the Design-A-vs-naive ablation benchmark.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        value: Expression,
        bound: int,
    ):
        if bound < 0 or bound > 64:
            raise ValueError(
                "naive range check beyond t=64 would explode the extended "
                "domain; use RangeDecomposeChip (that is the paper's point)"
            )
        self.bound = bound
        product: Expression = Constant(1)
        for i in range(bound + 1):
            product = product * (value - Constant(i))
        cs.create_gate(name, [q * product])

    def assign_row(self, asg: Assignment, row: int, value: int) -> None:
        if not 0 <= value <= self.bound:
            raise ValueError(f"value {value} outside [0, {self.bound}]")
        # No witness columns: the constraint alone enforces membership.
