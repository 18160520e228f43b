"""TPC-H generator and the six evaluation queries."""

import json
from pathlib import Path

import pytest

from repro.plonkish import Assignment, MockProver
from repro.sql.compiler import CompileError, QueryCompiler
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.telemetry.circuit import CircuitReport
from repro.tpch import QUERIES, generate, query
from repro.tpch.datagen import PS_KEY_SHIFT, scale_for_lineitem_rows


@pytest.fixture(scope="module")
def db():
    return generate(256)


class TestDatagen:
    def test_deterministic(self):
        a = generate(64, seed=7)
        b = generate(64, seed=7)
        assert a.table("lineitem").columns == b.table("lineitem").columns

    def test_seed_changes_data(self):
        a = generate(64, seed=7)
        b = generate(64, seed=8)
        assert a.table("lineitem").columns != b.table("lineitem").columns

    def test_scaling_ratios(self):
        scale = scale_for_lineitem_rows(60_000)
        assert scale.orders == 15_000
        assert scale.customer == 1_500
        assert scale.supplier == 100

    def test_tiny_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_for_lineitem_rows(4)

    def test_all_eight_tables(self, db):
        assert set(db.tables) == {
            "region", "nation", "supplier", "customer",
            "part", "partsupp", "orders", "lineitem",
        }
        assert len(db.table("region")) == 5
        assert len(db.table("nation")) == 25

    def test_referential_integrity(self, db):
        orders = set(db.table("orders").column("o_orderkey"))
        for fk in db.table("lineitem").column("l_orderkey"):
            assert fk in orders
        customers = set(db.table("customer").column("c_custkey"))
        for fk in db.table("orders").column("o_custkey"):
            assert fk in customers
        pskeys = set(db.table("partsupp").column("ps_pskey"))
        for fk in db.table("lineitem").column("l_pskey"):
            assert fk in pskeys

    def test_packed_partsupp_key(self, db):
        t = db.table("partsupp")
        for pskey, part, supp in zip(
            t.column("ps_pskey"), t.column("ps_partkey"), t.column("ps_suppkey")
        ):
            assert pskey == part * PS_KEY_SHIFT + supp

    def test_ship_after_order_date(self, db):
        lineitem = db.table("lineitem")
        order_dates = dict(
            zip(
                db.table("orders").column("o_orderkey"),
                db.table("orders").column("o_orderdate"),
            )
        )
        for orderkey, shipdate in zip(
            lineitem.column("l_orderkey"), lineitem.column("l_shipdate")
        ):
            assert shipdate > order_dates[orderkey]

    def test_keys_positive(self, db):
        for name, table in db.tables.items():
            pk = table.schema.primary_key
            if pk:
                assert min(table.column(pk)) >= 1, name


class TestQueries:
    def test_registry(self):
        assert set(QUERIES) == {"Q1", "Q3", "Q5", "Q8", "Q9", "Q18"}
        assert "group by" in query("Q1")
        with pytest.raises(KeyError):
            query("Q2")

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_queries_plan_and_execute(self, db, name):
        plan = Planner(db).plan(parse(QUERIES[name]))
        rel = Executor(db).execute(plan)
        assert rel.num_rows >= 0
        if name == "Q1":
            # Q1 groups by (returnflag, linestatus): at most 6 groups.
            assert 1 <= rel.num_rows <= 6
            assert rel.columns["count_order"] == sorted(
                rel.columns["count_order"], key=lambda _: 0
            )  # shape only

    def test_q1_aggregate_identity(self, db):
        """sum_disc_price <= sum_base_price (discounts only reduce)."""
        plan = Planner(db).plan(parse(QUERIES["Q1"]))
        rel = Executor(db).execute(plan)
        for base, disc in zip(
            rel.columns["sum_base_price"], rel.columns["sum_disc_price"]
        ):
            assert disc <= base * 100  # disc is at scale 100*100

    def test_q1_counts_cover_filtered_rows(self, db):
        plan = Planner(db).plan(parse(QUERIES["Q1"]))
        rel = Executor(db).execute(plan)
        cutoff = None
        from repro.db.types import date_to_int

        cutoff = date_to_int("1998-09-02")
        expected = sum(
            1 for d in db.table("lineitem").column("l_shipdate") if d <= cutoff
        )
        assert sum(rel.columns["count_order"]) == expected

    @staticmethod
    def circuit_matches_executor(db, name, k):
        plan = Planner(db).plan(parse(QUERIES[name]))
        expected = Executor(db).execute(plan)
        compiled = QueryCompiler(
            db, k, limb_bits=4, value_bits=32, key_bits=40
        ).compile(plan)
        asg = Assignment(compiled.cs, k)
        result = compiled.assign_witness(asg, db)
        MockProver(compiled.cs, asg).assert_satisfied()
        exp_rows = [list(r.values()) for r in expected.rows()]
        assert result == exp_rows[: compiled.limit]
        return compiled

    @pytest.mark.parametrize("name", ["Q1", "Q3"])
    def test_circuit_matches_executor(self, db, name):
        self.circuit_matches_executor(db, name, 9)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_compiled_circuit_is_pinned_and_satisfied(self, name):
        """All six queries over 16 lineitem rows at k=8: the witness
        computed from the circuit satisfies it, the result is the
        executor's, and the circuit keeps its recorded fingerprint (the
        per-pass golden digest an optimizer must re-record on
        purpose)."""
        pinned = json.loads(
            (Path(__file__).parent / "data" / "compiled_circuit_fingerprints.json")
            .read_text()
        )["tpch_k8_generate16_seed1"]
        compiled = self.circuit_matches_executor(generate(16, seed=1), name, 8)
        assert compiled.cs.fingerprint() == pinned[name]["fingerprint"]
        # Measured: exactly 0 on all six -- one advice column at three
        # rotations against 4 random rows, running products and sums at
        # two against 3; the opening argument's q(x3) is the "+ 1".
        assert CircuitReport.from_constraint_system(compiled.cs, 8).zk_margin >= 0


def test_recorded_fingerprints_are_the_recorder_output():
    """``tests/data/compiled_circuit_fingerprints.json`` -- digests and
    the counts beside them -- is what ``python -m
    tests.data.record_fingerprints`` writes at this commit."""
    from tests.data import record_fingerprints

    committed = json.loads(record_fingerprints.PATH.read_text())
    assert record_fingerprints.record() == committed


@pytest.mark.parametrize("name", ["Q8", "Q9"])
def test_calendar_larger_than_usable_rows_is_a_compile_error(name):
    """``EXTRACT(YEAR ...)`` needs the 129-row calendar table, which
    does not fit the 124 usable rows at k=7: the compiler says so
    before any key is built."""
    db = generate(32, seed=1)
    plan = Planner(db).plan(parse(QUERIES[name]))
    with pytest.raises(CompileError, match="129-year calendar table"):
        QueryCompiler(db, 7, 4, 32, 40).compile(plan)


@pytest.mark.parametrize("name", ["Q8", "Q9"])
def test_calendar_fits_once_usable_rows_allow(name):
    """The calendar check rejects only sizes it does not fit: at k=8
    the 129-row table fits the usable rows and the query compiles."""
    db = generate(32, seed=1)
    plan = Planner(db).plan(parse(QUERIES[name]))
    QueryCompiler(db, 8, 4, 32, 40).compile(plan)
