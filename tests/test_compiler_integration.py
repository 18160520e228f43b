"""Plan-to-circuit compiler: every operator shape produces a satisfied
circuit whose result matches the plaintext executor -- over the fixed
tables below and over seeded random ones -- tampered witnesses and
wrong answers violate constraints, the compiled circuits keep their
recorded fingerprints, and a witness that cannot be written fails with
a typed, attributed error."""

import datetime
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import DATE, DECIMAL, INT, STRING
from repro.errors import ReproError, WitnessError
from repro.plonkish import Assignment, ConstraintSystem, MockProver
from repro.plonkish.constraint_system import Column, ColumnKind
from repro.soundness import merge_groups, misorder_rows
from repro.sql.compiler import CompileError, QueryCompiler
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.telemetry.circuit import CircuitReport

K = 9


CUSTOMERS = [(1, "alice", 34), (2, "bob", 28), (3, "carol", 41), (4, "dave", 30)]
ORDERS = [
    (1, 1, 120.50, "1995-01-10"),
    (2, 1, 30.25, "1995-02-11"),
    (3, 2, 99.99, "1995-03-12"),
    (4, 3, 12.00, "1996-01-05"),
    (5, 7, 55.00, "1996-06-06"),
]


def make_db(customers=CUSTOMERS, orders=ORDERS):
    db = Database()
    db.create_table(
        TableSchema(
            "customers",
            [
                ColumnDef("c_id", INT),
                ColumnDef("c_name", STRING),
                ColumnDef("c_age", INT),
            ],
            primary_key="c_id",
        ),
        customers,
    )
    db.create_table(
        TableSchema(
            "orders",
            [
                ColumnDef("o_id", INT),
                ColumnDef("o_cid", INT),
                ColumnDef("o_amount", DECIMAL),
                ColumnDef("o_date", DATE),
            ],
            primary_key="o_id",
            foreign_keys={"o_cid": ("customers", "c_id")},
        ),
        orders,
    )
    return db


@pytest.fixture(scope="module")
def db():
    return make_db()


def compile_and_check(db, sql, k=K):
    plan = Planner(db).plan(parse(sql))
    expected = Executor(db).execute(plan)
    compiled = QueryCompiler(
        db, k, limb_bits=4, value_bits=32, key_bits=40
    ).compile(plan)
    asg = Assignment(compiled.cs, k)
    result = compiled.assign_witness(asg, db)
    MockProver(compiled.cs, asg).assert_satisfied()
    exp_rows = [list(r.values()) for r in expected.rows()]
    if compiled.limit is not None:
        exp_rows = exp_rows[: compiled.limit]
    return result, exp_rows, compiled, asg


QUERIES = {
    "projection": "select c_name, c_age from customers",
    "filter_lt": "select c_id from customers where c_age < 31",
    "filter_string": "select c_id from customers where c_name = 'carol'",
    "filter_or": (
        "select c_id from customers where c_age < 29 or c_age > 40"
    ),
    "filter_not": "select c_id from customers where not c_age >= 31",
    "filter_between": (
        "select o_id from orders where o_amount between 30 and 100"
    ),
    "filter_in": "select c_id from customers where c_age in (28, 41)",
    "order_by": "select c_id, c_age from customers order by c_age desc",
    "limit": "select c_id, c_age from customers order by c_age limit 2",
    "group_sum": (
        "select o_cid, sum(o_amount) as s from orders group by o_cid "
        "order by o_cid"
    ),
    "group_avg_count": (
        "select o_cid, avg(o_amount) as a, count(*) as n from orders "
        "group by o_cid order by o_cid"
    ),
    "global_aggregate": "select sum(o_amount) as s, count(*) as n from orders",
    "join": (
        "select c_name, o_amount from orders, customers where o_cid = c_id"
    ),
    "join_filter_agg": (
        "select c_name, sum(o_amount) as s from orders, customers "
        "where o_cid = c_id and o_amount > 20 group by c_name "
        "order by s desc"
    ),
    "derive_year": (
        "select extract(year from o_date) as y, count(*) as n from orders "
        "group by y order by y"
    ),
    "case_in_sum": (
        "select sum(case when o_cid = 1 then o_amount else 0 end) as s "
        "from orders"
    ),
    "having": (
        "select o_cid, count(*) as n from orders group by o_cid "
        "having count(*) > 1"
    ),
    "agg_division": (
        "select sum(o_amount) / count(*) as ratio from orders group by o_cid "
        "order by ratio desc limit 1"
    ),
    # Regressions of the three ways the hand-written witness mirror had
    # diverged from the constraints (ISSUE 18, B1-B3): an equality flag
    # on a row an earlier filter dropped, and hinted chips inside the
    # CASE branch a row does not take.
    "case_after_filter": (
        "select sum(case when o_cid = 1 then o_amount else 0 end) as s "
        "from orders where o_amount > 100"
    ),
    "case_division": (
        "select sum(case when o_cid = 1 then o_amount / 2 else 0 end) as s "
        "from orders"
    ),
    "case_year": (
        "select sum(case when o_cid = 1 then extract(year from o_date) "
        "else 0 end) as s from orders"
    ),
}


def check_shape(db, name, k=K):
    result, expected, compiled, asg = compile_and_check(db, QUERIES[name], k)
    if "order" in QUERIES[name]:
        assert result == expected, name
    else:
        assert sorted(result) == sorted(expected), name
    return result, compiled, asg


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_operator_shapes(db, name):
    check_shape(db, name)


FINGERPRINTS = json.loads(
    (Path(__file__).parent / "data" / "compiled_circuit_fingerprints.json")
    .read_text()
)


@pytest.mark.parametrize("name", sorted(FINGERPRINTS["operator_shapes_k9"]))
def test_operator_shape_fingerprints(db, name):
    """The circuit a query compiles to is pinned: a compiler change
    that moves a column or a constraint must re-record the digest on
    purpose (``python -m tests.data.record_fingerprints``)."""
    compiled = QueryCompiler(
        db, K, limb_bits=4, value_bits=32, key_bits=40
    ).compile(Planner(db).plan(parse(QUERIES[name])))
    pinned = FINGERPRINTS["operator_shapes_k9"][name]
    assert compiled.cs.fingerprint() == pinned["fingerprint"]
    # No committed polynomial is opened at more points than it has
    # random rows to spend (the opening argument's q(x3) included).
    assert CircuitReport.from_constraint_system(compiled.cs, K).zk_margin >= 0


# -- seeded random data -------------------------------------------------------
#
# The query texts stay fixed, the two tables are drawn: 0-6 rows each,
# duplicate and dangling foreign keys, ages up to 2^value_bits - 1, and
# orders that fail an amount filter yet match ``o_cid = 1``.  ORDER BY
# keys cannot tie, so row order is determined: ages are unique, and the
# amounts are distinct powers of 16 (in cents), which makes the sums of
# disjoint groups -- and their quotients by a count <= 6 -- distinct.

K_RANDOM = 8  # the smallest k whose usable rows hold the calendar table


@st.composite
def databases(draw):
    def column(values, n, unique=False):
        return draw(st.lists(values, min_size=n, max_size=n, unique=unique))

    n = draw(st.integers(0, 6))
    ages = st.one_of(st.integers(0, 60), st.integers(0, 2**32 - 1))
    customers = zip(
        column(st.integers(1, 8), n, unique=True),
        column(st.sampled_from(["alice", "bob", "carol", "erin"]), n),
        column(ages, n, unique=True),
    )
    n = draw(st.integers(0, 6))
    dates = st.dates(datetime.date(1994, 1, 1), datetime.date(1997, 12, 31))
    orders = zip(
        range(1, n + 1),
        column(st.integers(1, 8), n),
        [16**e / 100 for e in column(st.integers(1, 7), n, unique=True)],
        [d.isoformat() for d in column(dates, n)],
    )
    return make_db(list(customers), list(orders))


def claim(compiled, asg, rows):
    """Rebind the public side of an honest assignment -- the
    cardinality selectors and the instance columns -- to a claimed
    result, as a verifier would from a response; returns the names of
    the violated gates."""
    compiled.bind_result(asg, rows)
    return {f.name.split("#")[0] for f in MockProver(compiled.cs, asg).verify()}


@settings(max_examples=6, derandomize=True, deadline=None)
@given(databases())
def test_random_data_matches_executor_and_rejects_wrong_answers(db):
    for name in sorted(QUERIES):
        result, compiled, asg = check_shape(db, name, K_RANDOM)
        if not result:
            continue
        wrong = {
            "off by one": [[result[0][0] + 1, *result[0][1:]], *result[1:]],
            "duplicated row": result + [result[-1]],
            "truncated": result[:-1],
        }
        if len(result) > 1:
            wrong["dropped row"] = result[1:]
        for what, rows in wrong.items():
            violated = claim(compiled, asg, rows)
            assert violated and violated <= {
                "result_binding", "result_valid", "result_complete"
            }, (name, what, violated)
            assert what != "truncated" or violated == {"result_complete"}


# -- bounds -------------------------------------------------------------------

BOUND_SHAPES = [
    "filter_between", "group_avg_count", "join_filter_agg", "derive_year",
    "agg_division", "order_by",
]


def constraints_touching(cs, column):
    """The part of ``cs`` that reads ``column``: what could notice a
    change to one of its cells."""

    def touches(*exprs):
        return any(column in {c for c, _ in e.queries()} for e in exprs)

    return ConstraintSystem(
        fixed_columns=cs.fixed_columns,
        advice_columns=cs.advice_columns,
        instance_columns=cs.instance_columns,
        gates=[g for g in cs.gates if touches(*g.constraints)],
        lookups=[l for l in cs.lookups if touches(*l.inputs, *l.table)],
        shuffles=[
            s for s in cs.shuffles
            if touches(*sum(s.input_groups + s.table_groups, []))
        ],
    )


@pytest.mark.parametrize("name", BOUND_SHAPES)
def test_every_declared_advice_bound_is_enforced(db, name):
    """A declared bound is a claim that some constraint proves it.  For
    every bounded advice column of an honest witness there is a cell
    that cannot be raised to ``bound + 1`` without a gate, lookup or
    shuffle failing -- except the scanned columns, whose bound is the
    commitment contract: there the bound check itself is the guard (and,
    in a proof, the scan link)."""
    _, compiled, asg = check_shape(db, name, K_RANDOM)
    scanned = {link.advice_index for link in compiled.scan_links}
    declared = [
        (col, hi) for col, hi in compiled.cs.bounds.items()
        if isinstance(col, Column) and col.kind is ColumnKind.ADVICE
    ]
    assert len(declared) > len(scanned)
    for col, hi in declared:
        kinds = set()
        for row in range(asg.usable_rows):
            honest = asg.value(col, row)
            asg.assign(col, row, hi + 1)
            if col.index in scanned:
                failures = MockProver(compiled.cs, asg)._check_bounds()
            else:
                part = constraints_touching(compiled.cs, col)
                failures = MockProver(part, asg).verify()
            asg.assign(col, row, honest)
            kinds = {f.kind for f in failures}
            if kinds:
                break
        assert kinds and ("bound" in kinds) == (col.index in scanned), col.name


def test_bounds_are_public_metadata_only():
    """Prover and verifier must compile the same circuit: every bound
    comes from schemas, sizes and dictionaries -- a database and its
    data-free shell, or two databases that differ only in cell values,
    give one fingerprint."""
    from repro.system.metadata import PublicMetadata, shell_database
    from repro.tpch import QUERIES as TPCH, generate

    def fingerprints(database, queries, k):
        return [
            QueryCompiler(database, k, limb_bits=4, value_bits=32, key_bits=40)
            .compile(Planner(database).plan(parse(sql))).cs.fingerprint()
            for sql in queries
        ]

    workloads = [  # the benchmark's: Q1 at k=7, the four small shapes at k=6
        (generate(32, seed=1), [TPCH["Q1"]], 7),
        (generate(16, seed=1), list(TPCH.values()), 8),
        (generate(16, seed=1), [
            "select count(*) as n from nation where n_regionkey >= 2",
            "select n_regionkey, count(*) as n from nation "
            "group by n_regionkey order by n_regionkey",
            "select sum(s_acctbal) as total from supplier where s_nationkey >= 0",
            "select n_name, r_name from nation, region "
            "where n_regionkey = r_regionkey and r_name = 'ASIA'",
        ], 6),
        (make_db(), list(QUERIES.values()), K),
    ]
    for database, queries, k in workloads:
        shell = shell_database(PublicMetadata.from_database(database, k, 4, 32, 40))
        assert fingerprints(database, queries, k) == fingerprints(shell, queries, k)
    # Same names and sizes, other ages, amounts and dates.
    other = make_db(
        [(cid, name, age + 1000) for cid, name, age in CUSTOMERS],
        [(oid, cid, amount * 3, "2001-02-03") for oid, cid, amount, _ in ORDERS],
    )
    queries = list(QUERIES.values())
    assert fingerprints(make_db(), queries, K) == fingerprints(other, queries, K)


class TestKeyPackingCheats:
    """Composite keys are packed at the width their components' bounds
    need; the sort and group-by gates still reject the prover who lies
    about order or group membership (the same cheats go through
    ``verify`` in tests/test_system_e2e.py)."""

    def test_misordered_rows(self, db):
        result, compiled, asg = check_shape(db, "order_by")
        claimed = misorder_rows(compiled, asg, result)
        assert claimed == [result[1], result[0], *result[2:]]
        assert claim(compiled, asg, claimed) == {"osort5.sorted.recompose"}

    def test_merged_groups(self, db):
        sql = "select o_cid, count(*) as n from orders group by o_cid"
        result, _, compiled, asg = compile_and_check(db, sql)
        assert result == [[1, 2], [2, 1], [3, 1], [7, 1]]
        claimed = merge_groups(compiled, asg, result)
        assert claimed == [[2, 3], [3, 1], [7, 1]]
        assert claim(compiled, asg, claimed) == {"gb7.same"}

    def test_component_wider_than_its_packed_width(self):
        """Two components; the second, a string column of three names,
        is packed at two bits.  A code of 5 there would turn ('c', age
        30) into the key of ('a', age 31) and merge the two groups.  The
        honest witness writer refuses; in a cheater's assignment no
        gate can see it -- the scanned column *is* the input -- so the
        bound check (the commitment contract; in a proof, the scan
        link) must."""
        rows = [(1, "a", 31), (2, "b", 40), (3, "c", 30)]
        sql = (
            "select c_age, c_name, count(*) as n from customers "
            "group by c_age, c_name"
        )
        database = make_db(customers=rows)
        result, _, compiled, asg = compile_and_check(database, sql)
        assert len(result) == 3
        (link,) = [l for l in compiled.scan_links if l.column == "c_name"]
        scanned = compiled.cs.advice_columns[link.advice_index]
        asg.assign(scanned, 2, 5)
        assert ("bound", scanned.name, 2) in {
            (f.kind, f.name, f.row) for f in MockProver(compiled.cs, asg).verify()
        }
        database.table("customers").column("c_name")[2] = 5
        with pytest.raises(WitnessError, match="exceeds 2 bits") as err:
            compiled.assign_witness(Assignment(compiled.cs, K), database)
        assert (err.value.gate, err.value.values) == ("group key component", [30, 5])


class TestCompilerStructure:
    def test_scan_links_cover_used_columns(self, db):
        _, _, compiled, _ = compile_and_check(
            db, "select c_id from customers where c_age < 31"
        )
        linked = {(l.table, l.column) for l in compiled.scan_links}
        assert ("customers", "c_age") in linked
        assert ("customers", "c_id") in linked

    def test_public_assignment_matches_witness_fixed(self, db):
        """The verifier's fixed-only assignment must reproduce the
        prover's fixed columns exactly (otherwise keygen diverges)."""
        sql = QUERIES["join_filter_agg"]
        plan = Planner(db).plan(parse(sql))
        compiled = QueryCompiler(
            db, K, limb_bits=4, value_bits=32, key_bits=40
        ).compile(plan)
        asg_full = Assignment(compiled.cs, K)
        result = compiled.assign_witness(asg_full, db)

        plan2 = Planner(db).plan(parse(sql))
        compiled2 = QueryCompiler(
            db, K, limb_bits=4, value_bits=32, key_bits=40
        ).compile(plan2)
        asg_public = Assignment(compiled2.cs, K)
        compiled2.assign_public(asg_public, len(result))
        assert asg_full.fixed == asg_public.fixed

    def test_instance_vectors_layout(self, db):
        result, _, compiled, _ = compile_and_check(db, QUERIES["group_sum"])
        vectors = compiled.instance_vectors(result)
        assert len(vectors) == len(compiled.outputs)
        for j, vec in enumerate(vectors):
            assert vec[: len(result)] == [row[j] for row in result]
            assert all(v == 0 for v in vec[len(result):])

    def test_tampered_result_breaks_binding(self, db):
        _, _, compiled, asg = compile_and_check(db, QUERIES["group_sum"])
        inst_col = compiled.instance_columns[1]
        asg.assign(inst_col, 0, asg.value(inst_col, 0) + 1)
        failures = MockProver(compiled.cs, asg).verify()
        assert any("result_binding" in f.name for f in failures)

    def test_truncated_result_is_rejected(self, db):
        """``q_result`` binds a prefix of the dense final relation;
        ``q_after`` makes it the whole of it (unless a LIMIT cut it)."""
        result, compiled, asg = check_shape(db, "group_sum")
        assert claim(compiled, asg, result[:-1]) == {"result_complete"}
        assert claim(compiled, asg, []) == {"result_complete"}
        result, compiled, asg = check_shape(db, "limit")
        assert len(result) == compiled.limit
        assert not claim(compiled, asg, result)
        assert claim(compiled, asg, result[:-1]) == {"result_complete"}

    def test_table_too_big_rejected(self):
        big = Database()
        big.create_table(
            TableSchema("wide", [ColumnDef("w_id", INT)], primary_key="w_id"),
            [(i + 1,) for i in range(30)],
        )
        plan = Planner(big).plan(parse("select w_id from wide"))
        with pytest.raises(CompileError, match="capacity"):
            QueryCompiler(big, 4, limb_bits=2).compile(plan)

    def test_k_too_small_for_table(self, db):
        with pytest.raises(CompileError):
            QueryCompiler(db, 5, limb_bits=8).compile(
                Planner(db).plan(parse("select c_id from customers"))
            )

    def test_unsupported_aggregate_explains(self, db):
        plan = Planner(db).plan(
            parse("select min(o_amount) as m from orders group by o_cid")
        )
        with pytest.raises(CompileError, match="standalone"):
            QueryCompiler(db, K, limb_bits=4).compile(plan)


class TestWitnessErrors:
    """Data the configured widths (or a gate's domain) cannot hold
    fails where the witness is written: typed, and naming the gate, the
    row and the operand values."""

    @staticmethod
    def witness(db, sql, **widths):
        config = {"limb_bits": 4, "value_bits": 32, "key_bits": 40, **widths}
        compiled = QueryCompiler(db, K, **config).compile(
            Planner(db).plan(parse(sql))
        )
        return compiled.assign_witness(Assignment(compiled.cs, K), db)

    def test_comparison_operand_wider_than_value_bits(self, db):
        with pytest.raises(WitnessError, match="pre-range-checked") as err:
            self.witness(db, QUERIES["filter_lt"], value_bits=4)
        assert err.value.gate.startswith("lt")
        assert (err.value.row, err.value.values) == (0, [34, 31])
        assert "row 0" in str(err.value) and "[34, 31]" in str(err.value)

    def test_division_by_zero(self, db):
        with pytest.raises(WitnessError, match="division by zero") as err:
            self.witness(db, "select o_amount / (o_cid - 1) as r from orders")
        assert err.value.gate.startswith("div")
        assert (err.value.row, err.value.values[1]) == (0, 0)

    def test_year_outside_calendar(self):
        db = make_db(orders=[(1, 1, 5.00, "2100-03-04")])
        with pytest.raises(WitnessError, match="calendar") as err:
            self.witness(db, QUERIES["derive_year"])
        assert err.value.gate.startswith("year") and err.value.row == 0

    @pytest.mark.parametrize(
        "sql, gate",
        [
            ("select c_age, count(*) as n from customers group by c_age",
             "group key component"),
            (QUERIES["order_by"], "ORDER BY value"),
        ],
    )
    def test_key_component_wider_than_key_bits(self, db, sql, gate):
        with pytest.raises(WitnessError, match="exceeds 4 bits") as err:
            self.witness(db, sql, key_bits=4)
        assert (err.value.gate, err.value.row, err.value.values) == (gate, 0, [34])

    def test_compiler_errors_are_repro_errors(self):
        assert issubclass(CompileError, ReproError)
        assert issubclass(CompileError, ValueError)
        assert issubclass(WitnessError, ReproError)
        assert issubclass(WitnessError, ValueError)
        assert not issubclass(WitnessError, CompileError)
