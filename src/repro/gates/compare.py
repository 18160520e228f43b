"""Comparison chips (paper section 4.1, Design D and Equations 6-7).

All comparisons reduce to limb-decomposed range checks:

- ``AssertLeChip`` / ``AssertLtChip`` *assert* an order between two
  expressions (used for sortedness, where the relation must hold),
- ``LtFlagChip`` *computes* the order as a bit (paper Equation 4 with
  the prover-supplied ``check`` column -- used for filters, where either
  outcome is fine but must be proven correct),
- ``IsZeroChip`` / ``EqFlagChip`` implement the inverse trick of
  Equations 6-7.

Soundness of every chip here assumes its operands already lie in
``[0, 2^total_bits)``.  Scanned columns do by the commitment contract
(:func:`repro.db.encoding.column_bound`, checked when the database is
committed and by the auditor -- the paper's Design C, "range-check all
raw values once"); everything derived from them by the bound its own
constraint proves (``ConstraintSystem.declare_bound``), which is also
what lets the compiler size ``n_limbs`` below ``value_bits``.
"""

from __future__ import annotations

from repro.algebra.field import SCALAR_FIELD
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Constant, Expression


class IsZeroChip:
    """Computes ``is_zero(value)`` as the degree-(d+1) expression
    ``1 - value * inv`` with the constraint ``value * (1 - value*inv) = 0``
    (the paper's Equations 6-7 with ``b = 1 - v*p``).

    The prover assigns ``inv = value^-1`` (or anything when value = 0).
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        value: Expression,
    ):
        self.inv: Column = cs.advice_column(f"{name}.inv")
        self.value_expr = value
        self.is_zero_expr: Expression = Constant(1) - value * self.inv.cur()
        cs.create_gate(name, [q * value * self.is_zero_expr])
        # value = 0 makes the flag 1; otherwise the gate forces it to 0.
        cs.declare_bound(self.is_zero_expr, 1)

    def assign_row(self, asg: Assignment, row: int, value: int) -> int:
        """Assign the inverse hint; returns the is_zero bit."""
        value %= SCALAR_FIELD.p
        if value == 0:
            asg.assign(self.inv, row, 0)
            return 1
        asg.assign(self.inv, row, SCALAR_FIELD.inv(value))
        return 0


class EqFlagChip:
    """``eq(lhs, rhs)`` as an expression: IsZero applied to the
    difference."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        lhs: Expression,
        rhs: Expression,
    ):
        self._inner = IsZeroChip(cs, name, q, lhs - rhs)
        self.eq_expr: Expression = self._inner.is_zero_expr

    def assign_row(self, asg: Assignment, row: int, lhs: int, rhs: int) -> int:
        return self._inner.assign_row(asg, row, lhs - rhs)


class _Decomposition:
    """Shared machinery: allocate ``n_limbs`` advice columns, constrain
    ``target_expr == sum(limb_i * 2^(bits*i))`` under selector ``q``, and
    look every limb up in the range table.

    The lookups are *not* selector-gated: a bare limb is a degree-1
    lookup input, so three limbs share one helper column of the lookup
    argument where a gated ``q * limb`` would leave room for one.  The
    ungated statement is strictly stronger and every honest witness
    meets it -- :meth:`assign_row` masks each limb to ``bits`` and
    rows nobody assigns (or :meth:`assign_inactive`) hold 0."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        target: Expression,
        table: RangeTable,
        n_limbs: int,
    ):
        if n_limbs < 1:
            raise ValueError("need at least one limb")
        self.table = table
        self.n_limbs = n_limbs
        self.bits = table.bits
        self.total_bits = table.bits * n_limbs
        self.limbs = [cs.advice_column(f"{name}.limb{i}") for i in range(n_limbs)]
        recomposed: Expression = Constant(0)
        for i, limb in enumerate(self.limbs):
            recomposed = recomposed + limb.cur() * (1 << (self.bits * i))
        cs.create_gate(f"{name}.recompose", [q * (target - recomposed)])
        for i, limb in enumerate(self.limbs):
            cs.add_lookup(f"{name}.limb{i}", [limb.cur()], [table.column.cur()])
            cs.declare_bound(limb, table.size - 1)

    def assign_row(self, asg: Assignment, row: int, value: int) -> None:
        if not 0 <= value < (1 << self.total_bits):
            raise ValueError(
                f"value {value} outside decomposable range "
                f"[0, 2^{self.total_bits})"
            )
        mask = (1 << self.bits) - 1
        for i, limb in enumerate(self.limbs):
            asg.assign(limb, row, (value >> (self.bits * i)) & mask)

    def assign_inactive(self, asg: Assignment, row: int) -> None:
        """Zero the limbs on rows where the selector is off."""
        for limb in self.limbs:
            asg.assign(limb, row, 0)


class AssertLeChip:
    """Asserts ``lhs <= rhs`` on selected rows by decomposing
    ``rhs - lhs`` into range-checked limbs (the transformed statement of
    paper Equation 4 with the check bit pinned)."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        lhs: Expression,
        rhs: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self._decomp = _Decomposition(cs, name, q, rhs - lhs, table, n_limbs)

    def assign_row(self, asg: Assignment, row: int, lhs: int, rhs: int) -> None:
        if lhs > rhs:
            raise ValueError(f"AssertLe witness violated: {lhs} > {rhs}")
        self._decomp.assign_row(asg, row, rhs - lhs)

    def assign_inactive(self, asg: Assignment, row: int) -> None:
        self._decomp.assign_inactive(asg, row)


class AssertLtChip:
    """Asserts ``lhs < rhs`` (decomposes ``rhs - lhs - 1``)."""

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        lhs: Expression,
        rhs: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self._decomp = _Decomposition(
            cs, name, q, rhs - lhs - Constant(1), table, n_limbs
        )

    def assign_row(self, asg: Assignment, row: int, lhs: int, rhs: int) -> None:
        if lhs >= rhs:
            raise ValueError(f"AssertLt witness violated: {lhs} >= {rhs}")
        self._decomp.assign_row(asg, row, rhs - lhs - 1)

    def assign_inactive(self, asg: Assignment, row: int) -> None:
        self._decomp.assign_inactive(asg, row)


class LtFlagChip:
    """Computes ``check = [lhs < rhs]`` with the paper's Equation 4:
    ``0 <= (lhs - rhs) + check * u < u`` for ``u = 2^total_bits``,
    enforced by limb decomposition.

    The check column is boolean-constrained; a wrong check value makes
    the decomposition impossible, exactly as the paper argues ("if the
    check values are inaccurately provided, proof generation fails").
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        q: Expression,
        lhs: Expression,
        rhs: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self.check: Column = cs.advice_column(f"{name}.check")
        u = 1 << (table.bits * n_limbs)
        self.u = u
        cs.create_gate(
            f"{name}.bool", [q * self.check.cur() * (Constant(1) - self.check.cur())]
        )
        cs.declare_bound(self.check, 1)
        target = lhs - rhs + self.check.cur() * u
        self._decomp = _Decomposition(cs, name, q, target, table, n_limbs)
        self.lt_expr: Expression = self.check.cur()

    def assign_row(self, asg: Assignment, row: int, lhs: int, rhs: int) -> int:
        if not (0 <= lhs < self.u and 0 <= rhs < self.u):
            raise ValueError("LtFlag operands must be pre-range-checked")
        check = 1 if lhs < rhs else 0
        asg.assign(self.check, row, check)
        self._decomp.assign_row(asg, row, lhs - rhs + check * self.u)
        return check

    def assign_inactive(self, asg: Assignment, row: int) -> None:
        asg.assign(self.check, row, 0)
        self._decomp.assign_inactive(asg, row)
