"""PLONKish constraint system, expressions, assignments, MockProver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import SCALAR_FIELD
from repro.plonkish import Assignment, ConstraintSystem, Constant, MockProver
from repro.plonkish.assignment import ZK_ROWS

F = SCALAR_FIELD


def simple_mul_circuit():
    cs = ConstraintSystem()
    q = cs.selector("q_mul")
    a = cs.advice_column("a")
    b = cs.advice_column("b")
    c = cs.advice_column("c")
    cs.create_gate("mul", [q.cur() * (a.cur() * b.cur() - c.cur())])
    return cs, q, a, b, c


class TestExpressions:
    def test_degree(self):
        cs, q, a, b, c = simple_mul_circuit()
        expr = q.cur() * (a.cur() * b.cur() - c.cur())
        assert expr.degree() == 3
        assert (a.cur() + b.cur()).degree() == 1
        assert Constant(5).degree() == 0
        assert (a.cur() * 3).degree() == 1  # scaling is degree-free

    def test_evaluate(self):
        cs, q, a, b, c = simple_mul_circuit()
        env = {(a, 0): 3, (b, 0): 4, (c, 0): 12, (q, 0): 1}
        expr = q.cur() * (a.cur() * b.cur() - c.cur())
        assert expr.evaluate(lambda col, rot: env[(col, rot)], F.p) == 0
        env[(c, 0)] = 11
        assert expr.evaluate(lambda col, rot: env[(col, rot)], F.p) == 1

    def test_rotations(self):
        cs = ConstraintSystem()
        z = cs.advice_column("z")
        expr = z.next() - z.cur()
        queries = expr.queries()
        assert (z, 1) in queries and (z, 0) in queries
        assert z.prev().rotation == -1

    def test_arithmetic_sugar(self):
        cs = ConstraintSystem()
        a = cs.advice_column("a")
        env = {(a, 0): 10}
        q = lambda col, rot: env[(col, rot)]
        assert (5 + a.cur()).evaluate(q, F.p) == 15
        assert (5 - a.cur()).evaluate(q, F.p) == (5 - 10) % F.p
        assert (-a.cur()).evaluate(q, F.p) == F.p - 10
        assert (2 * a.cur()).evaluate(q, F.p) == 20

    def test_invalid_operand_rejected(self):
        cs = ConstraintSystem()
        a = cs.advice_column("a")
        with pytest.raises(TypeError):
            _ = a.cur() + 1.5


class TestConstraintSystem:
    def test_column_indices_unique_per_kind(self):
        cs = ConstraintSystem()
        a = cs.advice_column("a")
        b = cs.advice_column("b")
        f = cs.fixed_column("f")
        assert (a.index, b.index, f.index) == (0, 1, 0)

    def test_empty_gate_rejected(self):
        cs = ConstraintSystem()
        with pytest.raises(ValueError):
            cs.create_gate("empty", [])

    def test_lookup_arity_mismatch_rejected(self):
        cs = ConstraintSystem()
        a = cs.advice_column("a")
        t = cs.fixed_column("t")
        with pytest.raises(ValueError):
            cs.add_lookup("bad", [a.cur(), a.cur()], [t.cur()])

    def test_shuffle_group_mismatch_rejected(self):
        cs = ConstraintSystem()
        a = cs.advice_column("a")
        b = cs.advice_column("b")
        with pytest.raises(ValueError):
            cs.add_shuffle("bad", [[a.cur()], [a.cur()]], [[b.cur()]])
        with pytest.raises(ValueError):
            cs.add_shuffle("empty", [], [])

    def test_required_degree_accounts_for_arguments(self):
        cs, q, a, b, c = simple_mul_circuit()
        base = cs.required_degree()
        assert base >= cs.max_gate_degree()
        t = cs.fixed_column("t")
        cs.add_lookup("l", [q.cur() * a.cur()], [t.cur()])
        # active * (h * (beta + q*a) - 1): 1 + 1 + 2; the table's step
        # term, 1 + 1 + 1, is lower -- the two no longer add.
        assert cs.required_degree() >= 1 + 1 + 2

    def test_summary(self):
        cs, *_ = simple_mul_circuit()
        summary = cs.summary()
        assert summary["advice_columns"] == 3
        assert summary["gate_constraints"] == 1


class TestAssignment:
    def test_usable_rows(self):
        cs, *_ = simple_mul_circuit()
        asg = Assignment(cs, 4)
        assert asg.n_rows == 16
        assert asg.usable_rows == 16 - ZK_ROWS

    def test_blinding_rows_protected(self):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        with pytest.raises(IndexError):
            asg.assign(a, asg.usable_rows, 1)

    def test_assign_column_overflow(self):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        with pytest.raises(ValueError):
            asg.assign_column(a, [1] * (asg.usable_rows + 1))

    @pytest.mark.parametrize("write", ["assign", "assign_column", "assign_tail"])
    def test_writes_store_circuit_field_residues(self, write):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        raw = [-1, F.p + 5]
        if write == "assign":
            for row, value in enumerate(raw):
                asg.assign(a, row, value)
            rows = [0, 1]
        elif write == "assign_column":
            asg.assign_column(a, raw)
            rows = [0, 1]
        else:
            asg.assign_tail(a, raw + [0] * (ZK_ROWS - len(raw)))
            rows = [asg.usable_rows, asg.usable_rows + 1]
        assert [asg.value(a, row) for row in rows] == [F.p - 1, 5]

    def test_query_wraps(self):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        asg.assign(a, 0, 77)
        assert asg.query(a, asg.n_rows - 1, 1) == 77

    def test_fill_blinding_randomizes_tail(self):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        asg.fill_blinding()
        tail = [asg.value(a, r) for r in range(asg.usable_rows, asg.n_rows)]
        assert any(v != 0 for v in tail)

    def test_too_small_circuit_rejected(self):
        cs, *_ = simple_mul_circuit()
        with pytest.raises(ValueError):
            Assignment(cs, 2)

    def test_instance_values(self):
        cs, *_ = simple_mul_circuit()
        out = cs.instance_column("out")
        asg = Assignment(cs, 4)
        asg.assign(out, 1, 9)
        assert asg.instance_values(out)[1] == 9
        with pytest.raises(ValueError):
            asg.instance_values(cs.advice_columns[0])


class TestMockProver:
    def _satisfied(self, tamper=None):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 6)
        asg.assign(b, 0, 7)
        asg.assign(c, 0, 42)
        if tamper:
            tamper(cs, asg, (q, a, b, c))
        return MockProver(cs, asg).verify()

    def test_satisfied(self):
        assert self._satisfied() == []

    def test_gate_failure_reported_with_row(self):
        def tamper(cs, asg, cols):
            asg.assign(cols[3], 0, 41)

        failures = self._satisfied(tamper)
        assert len(failures) == 1
        assert failures[0].kind == "gate"
        assert failures[0].row == 0
        assert "mul" in failures[0].name

    def test_lookup_failure(self):
        def tamper(cs, asg, cols):
            q, a, b, c = cols
            t = cs.fixed_column("t")
            cs.add_lookup("rng", [q.cur() * a.cur()], [t.cur()])
            asg.fixed.append([0] * asg.n_rows)  # storage for new column
            # table only contains 0..3; a=6 is out of range

        failures = self._satisfied(tamper)
        assert any(f.kind == "lookup" for f in failures)

    def test_shuffle_failure(self):
        def tamper(cs, asg, cols):
            q, a, b, c = cols
            d = cs.advice_column("d")
            asg.advice.append([0] * asg.n_rows)
            cs.add_shuffle("sh", [[a.cur()]], [[d.cur()]])
            # d stays all zeros, a has a 6 -> multisets differ

        failures = self._satisfied(tamper)
        assert any(f.kind == "shuffle" for f in failures)

    def test_declared_bound_failure(self):
        """A declared bound is checked like a constraint: the cell that
        exceeds it is reported, by column and row."""

        def tamper(cs, asg, cols):
            cs.declare_bound(cols[1], 5)  # a = 6
            cs.declare_bound(cols[2], 7)  # b = 7: holds

        (failure,) = self._satisfied(tamper)
        assert (failure.kind, failure.name, failure.row) == ("bound", "a", 0)

    def test_assert_satisfied_raises_with_report(self):
        cs, q, a, b, c = simple_mul_circuit()
        asg = Assignment(cs, 4)
        asg.assign(q, 0, 1)
        asg.assign(a, 0, 2)
        asg.assign(b, 0, 2)
        asg.assign(c, 0, 5)
        with pytest.raises(AssertionError, match="mul"):
            MockProver(cs, asg).assert_satisfied()


class TestBounds:
    """``Expression.upper_bound``: interval arithmetic over declared
    column bounds."""

    def test_propagation(self):
        cs = ConstraintSystem()
        flag, value, free = (cs.advice_column(n) for n in ("flag", "value", "free"))
        cs.declare_bound(flag, 1)
        cs.declare_bound(value, 1000)
        cs.declare_bound(free, None)  # nothing known: declares nothing
        bound = lambda expr: expr.upper_bound(cs.bounds)
        assert bound(Constant(7)) == 7
        assert bound(flag.cur() * value.cur()) == 1000
        assert bound(value.next() * 100 + 5) == 100_005  # any rotation
        assert bound(Constant(1) - flag.cur()) == 1
        assert bound((Constant(1) - flag.cur()) * value.cur()) == 1000
        assert bound(Constant(1 << 10) - value.cur()) == 1 << 10
        # possibly negative, or over a column nobody bounded: no bound
        assert bound(flag.cur() - value.cur()) is None
        assert bound(Constant(999) - value.cur()) is None
        assert bound(flag.cur() * free.cur()) is None
        assert free not in cs.bounds

    def test_a_declared_expression_takes_its_declaration(self):
        cs = ConstraintSystem()
        value, inv = cs.advice_column("value"), cs.advice_column("inv")
        is_zero = Constant(1) - value.cur() * inv.cur()
        assert is_zero.upper_bound(cs.bounds) is None
        cs.declare_bound(is_zero, 1)
        cs.declare_bound(value, 50)
        assert is_zero.upper_bound(cs.bounds) == 1
        assert (is_zero * value.cur() + 2).upper_bound(cs.bounds) == 52
        # a structurally equal expression built elsewhere is not it
        again = Constant(1) - value.cur() * inv.cur()
        assert again.upper_bound(cs.bounds) is None


N_COLUMNS = 3


def expressions(columns):
    leaves = st.one_of(
        st.integers(-20, 20).map(Constant),
        st.tuples(st.sampled_from(columns), st.integers(-1, 1)).map(
            lambda cr: cr[0].query(cr[1])
        ),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: ab[0] + ab[1]),
            st.tuples(inner, inner).map(lambda ab: ab[0] - ab[1]),
            st.tuples(inner, inner).map(lambda ab: ab[0] * ab[1]),
            st.tuples(inner, st.integers(-5, 5)).map(lambda ab: ab[0] * ab[1]),
        ),
        max_leaves=8,
    )


@st.composite
def bounded_assignments(draw):
    cs = ConstraintSystem()
    columns = [cs.advice_column(f"c{i}") for i in range(N_COLUMNS)]
    asg = Assignment(cs, 3)
    for col in columns:
        hi = draw(st.integers(0, 40))
        cs.declare_bound(col, hi)
        asg.assign_column(
            col, draw(st.lists(st.integers(0, hi), min_size=4, max_size=4))
        )
    return cs, asg, draw(expressions(columns))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(bounded_assignments())
def test_interval_contains_every_evaluation(case):
    """On cells within their declared bounds, the integer an expression
    evaluates to lies in its interval -- so ``upper_bound``, when there
    is one, bounds the field value ``Assignment.evaluate`` returns."""
    cs, asg, expr = case
    lo, hi = expr.interval(cs.bounds)
    bound = expr.upper_bound(cs.bounds)
    assert bound == (hi if lo >= 0 else None)
    for row in range(1, 3):  # rotations stay inside the assigned rows
        value = asg.evaluate(expr, row)
        signed = value if value <= F.p // 2 else value - F.p
        assert lo <= signed <= hi
        if bound is not None:
            assert value <= bound
