"""Comparison chips: IsZero/EqFlag (Eqs 6-7), AssertLe/Lt, LtFlag
(Design D / Eq 4) -- correctness and cheating-witness rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import SCALAR_FIELD
from repro.gates import (
    AssertLeChip,
    AssertLtChip,
    EqFlagChip,
    IsZeroChip,
    LtFlagChip,
    RangeTable,
)
from repro.plonkish import Assignment, ConstraintSystem, MockProver

K = 6  # 64 rows; 4-bit table, 2 limbs -> 8-bit values


def _base():
    cs = ConstraintSystem()
    table = RangeTable(cs, bits=4)
    q = cs.selector("q")
    a = cs.advice_column("a")
    b = cs.advice_column("b")
    return cs, table, q, a, b


class TestRangeTable:
    def test_rejects_bad_width(self):
        cs = ConstraintSystem()
        with pytest.raises(ValueError):
            RangeTable(cs, bits=0)
        with pytest.raises(ValueError):
            RangeTable(cs, bits=30)

    def test_rejects_too_small_circuit(self):
        cs = ConstraintSystem()
        table = RangeTable(cs, bits=8)
        cs.advice_column("x")
        asg = Assignment(cs, 6)  # 60 usable < 256
        with pytest.raises(ValueError):
            table.assign(asg)


class TestIsZero:
    def test_zero_and_nonzero(self):
        cs, table, q, a, b = _base()
        chip = IsZeroChip(cs, "iz", q.cur(), a.cur())
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 0)
        assert chip.assign_row(asg, 0, 0) == 1
        asg.assign(q, 1, 1)
        asg.assign(a, 1, 5)
        assert chip.assign_row(asg, 1, 5) == 0
        MockProver(cs, asg).assert_satisfied()

    @pytest.mark.parametrize(
        "value, flag", [(-5, 0), (SCALAR_FIELD.p, 1)], ids=["negative", "p"]
    )
    def test_hint_for_an_unreduced_value(self, value, flag):
        """The hint is computed on the circuit-field residue: ``-5`` is
        nonzero there, ``p`` is zero."""
        cs, table, q, a, b = _base()
        chip = IsZeroChip(cs, "iz", q.cur(), a.cur())
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, value)
        assert chip.assign_row(asg, 0, value) == flag
        MockProver(cs, asg).assert_satisfied()

    def test_wrong_inverse_hint_caught(self):
        cs, table, q, a, b = _base()
        chip = IsZeroChip(cs, "iz", q.cur(), a.cur())
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 5)
        # Claim 5 is zero by giving inv = 0 (b = 1).
        asg.assign(chip.inv, 0, 0)
        failures = MockProver(cs, asg).verify()
        assert failures and failures[0].kind == "gate"


class TestEqFlag:
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_matches_python(self, x, y):
        cs, table, q, a, b = _base()
        chip = EqFlagChip(cs, "eq", q.cur(), a.cur(), b.cur())
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, x)
        asg.assign(b, 0, y)
        flag = chip.assign_row(asg, 0, x, y)
        assert flag == (1 if x == y else 0)
        MockProver(cs, asg).assert_satisfied()


class TestAssertOrderings:
    def test_le_accepts_and_lt_rejects_equal(self):
        cs, table, q, a, b = _base()
        le = AssertLeChip(cs, "le", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 9)
        asg.assign(b, 0, 9)
        le.assign_row(asg, 0, 9, 9)
        MockProver(cs, asg).assert_satisfied()

        with pytest.raises(ValueError):
            le.assign_row(asg, 1, 10, 9)

    def test_lt_strict(self):
        cs, table, q, a, b = _base()
        lt = AssertLtChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 3)
        asg.assign(b, 0, 4)
        lt.assign_row(asg, 0, 3, 4)
        MockProver(cs, asg).assert_satisfied()
        with pytest.raises(ValueError):
            lt.assign_row(asg, 1, 4, 4)

    def test_forged_le_witness_fails_lookup(self):
        cs, table, q, a, b = _base()
        AssertLeChip(cs, "le", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 10)
        asg.assign(b, 0, 9)  # violated: 10 > 9
        # Forge limbs for (9 - 10) mod p: a huge value -- the limbs
        # cannot both recompose and stay in the table.
        failures = MockProver(cs, asg).verify()
        assert failures  # recomposition gate fails with zero limbs


class TestLtFlag:
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_flag_matches_python(self, x, y):
        cs, table, q, a, b = _base()
        chip = LtFlagChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, x)
        asg.assign(b, 0, y)
        assert chip.assign_row(asg, 0, x, y) == (1 if x < y else 0)
        MockProver(cs, asg).assert_satisfied()

    def test_flipped_check_bit_caught(self):
        cs, table, q, a, b = _base()
        chip = LtFlagChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 3)
        asg.assign(b, 0, 7)
        chip.assign_row(asg, 0, 3, 7)
        # The prover lies: claims 3 >= 7.
        asg.assign(chip.check, 0, 0)
        failures = MockProver(cs, asg).verify()
        assert failures, "Eq. 4: a wrong check bit must be unprovable"

    def test_non_boolean_check_caught(self):
        cs, table, q, a, b = _base()
        chip = LtFlagChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 3)
        asg.assign(b, 0, 7)
        chip.assign_row(asg, 0, 3, 7)
        asg.assign(chip.check, 0, 2)
        failures = MockProver(cs, asg).verify()
        assert any("bool" in f.name for f in failures)

    def test_out_of_range_operand_rejected(self):
        cs, table, q, a, b = _base()
        chip = LtFlagChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, 2)
        asg = Assignment(cs, K)
        table.assign(asg)
        with pytest.raises(ValueError):
            chip.assign_row(asg, 0, 1 << 20, 3)
