"""The lookup argument against an oracle that knows no argument.

``MockProver`` checks lookup membership directly on the assignment; the
proving system proves it with one log-derivative sum per table.  Over
small random lookup circuits the two have to agree: the mock is
satisfied exactly when ``create_proof`` succeeds and ``verify_proof``
accepts, and the prover raises ``ProvingError`` exactly when the mock
reports a lookup failure.  (The permuted-column argument this one
replaced was not kept as a second path; this is its stand-in.)
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import setup
from repro.plonkish import Assignment, ConstraintSystem, MockProver
from repro.plonkish.expression import Constant
from repro.proving import create_proof, keygen, verify_proof
from repro.proving.prover import ProvingError

K = 4


@pytest.fixture(scope="module")
def params():
    return setup(K)


@dataclass
class LookupSpec:
    table: int  # which table it looks into
    degree: int  # of every input expression, 1-3
    picks: list[int]  # per usable row: the table row the input copies


@dataclass
class CircuitSpec:
    gate_degree: int  # of one (satisfied) gate: sets the helper budget
    tables: list[list[tuple[int, ...]]]  # per table its leading rows
    lookups: list[LookupSpec]
    stray: tuple[int, int] | None  # (lookup, row) of one out-of-table cell


@st.composite
def circuit_specs(draw):
    usable = Assignment(ConstraintSystem(), K).usable_rows
    tables = []
    for _ in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 3))
        # Values from a tiny range: duplicate rows are the norm, and the
        # unassigned tail of the table is all-zero rows.
        row = st.tuples(*[st.integers(0, 2)] * width)
        tables.append(draw(st.lists(row, min_size=1, max_size=usable - 2)))
    lookups = [
        LookupSpec(
            table=draw(st.integers(0, len(tables) - 1)),
            degree=draw(st.sampled_from([1, 1, 2, 3])),
            picks=draw(
                st.lists(st.integers(0, usable - 1), min_size=usable, max_size=usable)
            ),
        )
        for _ in range(draw(st.integers(1, 7)))
    ]
    stray = draw(
        st.none()
        | st.tuples(st.integers(0, len(lookups) - 1), st.integers(0, usable - 1))
    )
    # Gate degree 3 or 4 leaves a helper room for more than one input.
    gate_degree = draw(st.sampled_from([1, 3, 4, 4]))
    return CircuitSpec(gate_degree, tables, lookups, stray)


def build(spec: CircuitSpec):
    """The circuit and witness a spec describes.  Table ``t`` is a set
    of fixed columns; lookup ``i`` reads advice columns ``in{i}.*``
    through ``degree - 1`` factors of an advice flag that is 1 on every
    row, so its inputs are the picked table row."""
    cs = ConstraintSystem()
    zero = cs.advice_column("zero")
    gate = Constant(1)
    for _ in range(spec.gate_degree):
        gate = gate * zero.cur()
    cs.create_gate("budget", [gate])
    table_columns = [
        [cs.fixed_column(f"t{t}.{j}") for j in range(len(rows[0]))]
        for t, rows in enumerate(spec.tables)
    ]
    inputs = []
    for i, lookup in enumerate(spec.lookups):
        columns = table_columns[lookup.table]
        flag = cs.advice_column(f"in{i}.flag")
        cells = [cs.advice_column(f"in{i}.{j}") for j in range(len(columns))]
        gated = []
        for cell in cells:
            expr = cell.cur()
            for _ in range(lookup.degree - 1):
                expr = flag.cur() * expr
            gated.append(expr)
        cs.add_lookup(f"in{i}", gated, [column.cur() for column in columns])
        inputs.append((flag, cells))

    asg = Assignment(cs, K)
    for columns, rows in zip(table_columns, spec.tables):
        for r, row in enumerate(rows):
            for column, value in zip(columns, row):
                asg.assign(column, r, value)
    for i, (lookup, (flag, cells)) in enumerate(zip(spec.lookups, inputs)):
        rows = spec.tables[lookup.table]
        for r, pick in enumerate(lookup.picks):
            asg.assign(flag, r, 1)
            values = rows[pick] if pick < len(rows) else (0,) * len(cells)
            if spec.stray == (i, r):
                values = (values[0] + 1000, *values[1:])
            for cell, value in zip(cells, values):
                asg.assign(cell, r, value)
    return cs, asg


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=circuit_specs())
def test_mock_prover_and_the_argument_agree(params, spec):
    cs, asg = build(spec)
    failures = MockProver(cs, asg).verify()
    assert {f.kind for f in failures} <= {"lookup"}
    assert bool(failures) == (spec.stray is not None)

    pk = keygen(params, cs, K, asg.fixed)
    try:
        proof = create_proof(pk, asg)
    except ProvingError as exc:
        assert failures, f"satisfied circuit refused: {exc}"
        assert failures[0].name in str(exc)
        return
    assert not failures, "the prover let an out-of-table value through"
    assert verify_proof(pk.vk, proof, [])


def _lookup_circuit(gate_degree, input_degrees, tables=None):
    """``len(input_degrees)`` one-column lookups, the ``i``-th into
    table ``tables[i]`` (default: all into table 0), beside a gate of
    ``gate_degree``."""
    cs = ConstraintSystem()
    a = cs.advice_column("a")
    gate = Constant(1)
    for _ in range(gate_degree):
        gate = gate * a.cur()
    cs.create_gate("g", [gate])
    tables = tables or [0] * len(input_degrees)
    fixed = [cs.fixed_column(f"t{t}") for t in range(max(tables) + 1)]
    for i, (degree, t) in enumerate(zip(input_degrees, tables)):
        expr = a.cur()
        for _ in range(degree - 1):
            expr = expr * a.cur()
        cs.add_lookup(f"l{i}", [expr], [fixed[t].cur()])
    return cs


class TestGroupingRule:
    def names(self, argument):
        return [[lookup.name for lookup in group] for group in argument.groups]

    def test_greedy_in_declaration_order_within_the_budget(self):
        # Gate degree 4 -> the circuit needs degree 5 anyway -> a helper
        # constraint may spend 5 - 2 = 3 on its inputs.
        cs = _lookup_circuit(4, [1, 1, 1, 2, 2, 1, 3, 1])
        (argument,) = cs.lookup_arguments()
        assert self.names(argument) == [
            ["l0", "l1", "l2"], ["l3"], ["l4", "l5"], ["l6"], ["l7"],
        ]
        assert argument.group_degrees == [5, 4, 5, 5, 3]
        assert cs.required_degree() == 5
        # Every lookup sits in exactly one group, in order.
        assert argument.lookups == cs.lookups

    def test_an_oversize_input_still_gets_a_group_and_sets_the_degree(self):
        cs = _lookup_circuit(1, [1, 3, 1])  # budget 2 - 2 = 0
        (argument,) = cs.lookup_arguments()
        assert self.names(argument) == [["l0"], ["l1"], ["l2"]]
        assert argument.group_degrees == [3, 5, 3]
        assert cs.required_degree() == 5

    def test_one_argument_per_table_in_first_use_order(self):
        cs = _lookup_circuit(4, [1, 1, 1, 1, 1], tables=[1, 0, 1, 1, 0])
        first, second = cs.lookup_arguments()
        assert self.names(first) == [["l0", "l2", "l3"]]
        assert self.names(second) == [["l1", "l4"]]
        assert (first.first_helper, second.first_helper) == (0, 1)
        assert cs.summary()["lookup_tables"] == 2
        assert cs.summary()["lookup_helper_columns"] == 2

    def test_table_degree_counts_once(self):
        # Input and table degree no longer add: a degree-3 input into a
        # degree-1 table is 2 + 3, not 2 + 3 + 1.
        cs = _lookup_circuit(1, [3])
        (argument,) = cs.lookup_arguments()
        assert (argument.group_degrees, argument.table_degree) == ([5], 3)
        assert cs.required_degree() == 5
