"""The telemetry layer: spans, counters, exporters, circuit reports.

Covers the tentpole guarantees: span nesting and exception safety,
thread-safe counters, the capture/merge a forked service runner ships
its job's telemetry through, the < 2% disabled-overhead budget, JSONL
round-trips,
static CircuitReport golden values (and the example proof's counts
against them), and the end-to-end ``report`` attached to proved
responses.
"""

import json
import multiprocessing
import threading

import pytest

from repro import PoneglyphDB, ProverConfig, telemetry
from repro.algebra import SCALAR_FIELD
from repro.commit import setup
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING
from repro.plonkish.assignment import ZK_ROWS
from repro.proving import create_proof, keygen
from repro.telemetry.circuit import CircuitReport
from repro.telemetry.export import write_trace_spans
from repro.telemetry.selfcheck import (
    EXAMPLE_K,
    EXPECTED_PHASES,
    example_assignment,
    example_circuit,
    run_instrumented_prove,
)


@pytest.fixture()
def tele():
    """The ambient tracer, enabled and clean; prior state restored."""
    previous = telemetry.enable(True)
    telemetry.reset()
    yield telemetry
    telemetry.reset()
    telemetry.enable(previous)


def _job(n, job_id=None):
    """A stand-in for ``service.runner.run_job``: the job opens its own
    scope, then records a span and a counter."""
    with telemetry.job_scope(**({"job_id": job_id} if job_id else {})):
        with telemetry.span("test.task", n=n):
            telemetry.incr("test.work", n)
    return n * n


def _serve_one(conn, fn, args):
    conn.send(telemetry.run_captured(fn, args))


def _run_in_fork(fn, *args):
    """``fn(*args)`` run as ``service.runner._serve`` runs a job: under
    :func:`telemetry.run_captured` in a forked child, whose
    ``(result, snapshot)`` comes back over a pipe."""
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(target=_serve_one, args=(child_end, fn, args))
    process.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "forked child sent nothing"
        return parent_end.recv()
    finally:
        process.join(timeout=60)
        assert process.exitcode == 0


class TestSpans:
    def test_nesting_and_attrs(self, tele):
        with tele.span("outer", k=5) as outer:
            with tele.span("inner.a") as a:
                a.set(rows=3)
            with tele.span("inner.b"):
                pass
        assert outer.attrs == {"k": 5}
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.children[0].attrs == {"rows": 3}
        assert all(c.parent_id == outer.span_id for c in outer.children)
        assert outer in tele.get_tracer().roots
        assert [s.name for s in outer.walk()] == ["outer", "inner.a", "inner.b"]
        assert outer.duration >= max(c.duration for c in outer.children)

    def test_exception_marks_error(self, tele):
        with pytest.raises(ValueError):
            with tele.span("outer") as outer:
                with tele.span("inner"):
                    raise ValueError("boom")
        assert outer.status == "error"
        assert outer.attrs["error"] == "ValueError"
        # The inner span was robust-popped and flagged too.
        assert outer.children[0].status == "error"
        assert tele.current_span() is None

    def test_begin_end_imperative(self, tele):
        root = tele.begin_span("prove", k=3)
        child = tele.begin_span("prove.quotient")
        child.end()
        root.end()
        root.end()  # idempotent
        assert [c.name for c in root.children] == ["prove.quotient"]
        assert root.duration >= child.duration

    def test_disabled_span_is_noop_singleton(self):
        previous = telemetry.enable(False)
        try:
            with telemetry.span("anything") as s:
                assert s is telemetry.NOOP_SPAN
            # timed flavour still measures.
            sw = telemetry.begin_span("verify")
            assert isinstance(sw, telemetry.Stopwatch)
            assert sw.end() >= 0.0
            assert telemetry.get_tracer().roots == []
        finally:
            telemetry.enable(previous)

    def test_counters_thread_safe(self, tele):
        def bump():
            for _ in range(1000):
                tele.incr("test.threads")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tele.counters_snapshot()["test.threads"] == 4000


class TestRunnerMerge:
    """What ``ForkedRunner.run`` relies on: a forked child's snapshot
    holds only its own job, and merging it adds counters and re-parents
    spans."""

    def test_counters_add(self, tele):
        tele.incr("test.work", 5)  # the child inherits this at the fork
        result, snapshot = _run_in_fork(_job, 3)
        assert result == 9
        assert snapshot.counters["test.work"] == 3
        tele.merge_captured(snapshot)
        assert tele.counters_snapshot()["test.work"] == 8

    def test_spans_reparent_under_the_active_span(self, tele):
        _, snapshot = _run_in_fork(_job, 2)
        with tele.span("parent"):
            tele.merge_captured(snapshot)
        (root,) = tele.get_tracer().roots
        (merged,) = root.children
        assert merged.name == "test.task"
        assert merged.parent_id == root.span_id
        assert merged.attrs == {"n": 2}  # no chunk tag

    def test_job_context_propagates(self, tele):
        _, snapshot = _run_in_fork(_job, 1, "job-42")
        tele.merge_captured(snapshot)
        (root,) = tele.get_tracer().roots
        assert root.attrs == {"n": 1, "job_id": "job-42"}

    def test_disabled_capture_merges_nothing(self):
        previous = telemetry.enable(False)
        try:
            assert telemetry.run_captured(_job, (2,)) == (4, None)
            telemetry.merge_captured(None)
        finally:
            telemetry.enable(previous)

    def test_point_normalization_is_uncounted(self, tele):
        # to_affine / batch_to_affine are representation bookkeeping,
        # not workload, so they must not feed field.inversions.
        from repro.ecc.curve import PALLAS, batch_to_affine

        points = [PALLAS.generator * s for s in (2, 3, 5)]
        before = tele.counters_snapshot().get("field.inversions", 0)
        for point in points:
            point.to_affine()
        batch_to_affine(points)
        assert tele.counters_snapshot().get("field.inversions", 0) == before


def best_time(fn, repeats=5):
    return min(telemetry.time_call(fn)[1] for _ in range(repeats))


class TestDisabledOverhead:
    def test_noop_budget_under_two_percent(self, tele):
        """The disabled fast path must cost < 2% of a real prove.

        Measured directly: count every instrumentation event one
        instrumented k=5 prove emits (spans + counter bumps), then time
        that many *disabled* span/incr calls and compare against the
        same prove's disabled wall time, each the best of five timings
        so that one scheduler stall cannot decide the budget.
        """
        root = run_instrumented_prove()
        spans = sum(1 for _ in root.walk())
        bumps = sum(1 for _ in tele.counters_snapshot())
        events = spans + int(
            sum(tele.counters_snapshot().values())
        )
        assert bumps > 0 and spans > 10

        telemetry.enable(False)
        telemetry.reset()
        prove_seconds = best_time(run_instrumented_prove)

        def burn():
            for _ in range(spans):
                with telemetry.span("noop", k=1):
                    pass
            for _ in range(events):
                telemetry.incr("noop", 1)

        overhead_seconds = best_time(burn)
        telemetry.enable(True)
        assert overhead_seconds < 0.02 * prove_seconds, (
            f"disabled telemetry cost {overhead_seconds:.4f}s for "
            f"{spans} spans + {events} incrs vs {prove_seconds:.2f}s prove"
        )


class TestExportRoundTrip:
    def test_jsonl_round_trip(self, tele, tmp_path):
        with tele.span("prove", k=5):
            with tele.span("prove.quotient", ext=256):
                tele.incr("fft.calls", 3)
            tele.gauge("proof.bytes", 1234)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        telemetry.write_trace(first, tele.get_tracer())
        trace = telemetry.read_trace(first)
        assert trace.counters == {"fft.calls": 3}
        assert trace.gauges == {"proof.bytes": 1234}
        (root,) = trace.roots
        assert root.name == "prove" and root.attrs == {"k": 5}
        assert root.children[0].name == "prove.quotient"
        write_trace_spans(second, trace)
        assert first.read_bytes() == second.read_bytes()

    def test_read_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"type": "meta", "format": "nope"}) + "\n")
        with pytest.raises(ValueError):
            telemetry.read_trace(bad)

    def test_render_tree_and_phases(self, tele):
        root = tele.begin_span("prove")
        tele.begin_span("prove.quotient").end()
        root.end()
        tele.incr("msm.points", 1_000_000)
        tree = telemetry.render_tree(
            [root], tele.counters_snapshot(), tele.gauges_snapshot()
        )
        assert "prove.quotient" in tree and "% of parent" in tree
        assert "1,000,000" in tree
        report = telemetry.phase_report(root, tele.counters_snapshot())
        assert set(report["phases"]) == {"quotient"}
        assert 0.0 < report["phase_coverage"] <= 1.0
        rendered = telemetry.render_phases(report)
        assert "quotient" in rendered and "phase coverage" in rendered

    def test_non_string_attrs_round_trip(self, tele, tmp_path):
        """Spans routinely carry ints, floats, bools, tuples, enums,
        and paths; the JSONL writer must keep JSON scalars typed and
        stringify the rest instead of crashing."""
        from enum import Enum
        from pathlib import Path

        class Lane(Enum):
            HIGH = 0

        with tele.span(
            "prove",
            k=5,
            ratio=0.5,
            warm=True,
            nothing=None,
            sizes=(1, 2, 3),
            nested={"a": Path("/tmp/x"), "b": 2},
            lane=Lane.HIGH,
        ):
            pass
        path = tmp_path / "attrs.jsonl"
        telemetry.write_trace(path, tele.get_tracer())
        (root,) = telemetry.read_trace(path).roots
        assert root.attrs["k"] == 5
        assert root.attrs["ratio"] == 0.5
        assert root.attrs["warm"] is True
        assert root.attrs["nothing"] is None
        assert root.attrs["sizes"] == [1, 2, 3]
        assert root.attrs["nested"] == {"a": "/tmp/x", "b": 2}
        assert root.attrs["lane"] == "Lane.HIGH"
        # And a second write of the parsed trace is byte-stable.
        second = tmp_path / "attrs2.jsonl"
        write_trace_spans(second, telemetry.read_trace(path))
        assert path.read_bytes() == second.read_bytes()

    def test_render_empty_trace(self, tele):
        assert telemetry.render_tree([]) == ""
        assert telemetry.render_tree([], {}, {}) == ""

    def test_single_span_render_and_phase_report(self, tele):
        root = tele.begin_span("prove")
        root.end()
        tree = telemetry.render_tree([root])
        assert "prove" in tree and "% of parent" not in tree
        report = telemetry.phase_report(root)
        assert report["phases"] == {}
        assert report["phase_coverage"] == 0.0
        assert "phase coverage" in telemetry.render_phases(report)

    def test_zero_duration_root_phase_report(self, tele):
        root = tele.begin_span("prove")
        root.end()
        root.duration = 0.0
        report = telemetry.phase_report(root)
        assert report["phase_coverage"] == 0.0  # no division by zero
        telemetry.render_phases(report)  # must not raise either


class TestObserversAndContext:
    def test_raising_observer_dropped_not_fatal(self, tele):
        """A broken observer must not fail the traced work: it is
        removed after its first raise and counted."""
        seen = []

        def good(span, event):
            seen.append((span.name, event))

        def bad(span, event):
            raise RuntimeError("observer bug")

        telemetry.add_span_observer(good)
        telemetry.add_span_observer(bad)
        try:
            with tele.span("first"):
                pass
            with tele.span("second"):
                pass
        finally:
            telemetry.remove_span_observer(good)
            telemetry.remove_span_observer(bad)
        assert ("first", "begin") in seen and ("second", "end") in seen
        dropped = tele.counters_snapshot()["telemetry.observers_dropped"]
        assert dropped == 1  # dropped at its first raise, not per span

    def test_observer_list_mutation_during_dispatch(self, tele):
        """An observer that unregisters itself mid-dispatch must not
        break iteration over the observer list."""
        calls = []

        def self_removing(span, event):
            calls.append(event)
            telemetry.remove_span_observer(self_removing)

        telemetry.add_span_observer(self_removing)
        try:
            with tele.span("outer"):
                with tele.span("inner"):
                    pass
        finally:
            telemetry.remove_span_observer(self_removing)
        assert calls == ["begin"]

    def test_job_scope_stamps_root_spans_only(self, tele):
        with tele.job_scope(job_id="job-7", trace_id="trace-abc"):
            assert tele.current_context() == {
                "job_id": "job-7", "trace_id": "trace-abc",
            }
            with tele.span("prove") as root:
                with tele.span("prove.quotient") as child:
                    pass
        assert tele.current_context() == {}
        assert root.attrs["job_id"] == "job-7"
        assert root.attrs["trace_id"] == "trace-abc"
        assert "job_id" not in child.attrs  # children inherit via root

    def test_explicit_attrs_beat_context(self, tele):
        with tele.job_scope(job_id="from-context"):
            with tele.span("prove", job_id="explicit") as root:
                pass
        assert root.attrs["job_id"] == "explicit"


class TestCircuitReport:
    def test_example_circuit_golden_values(self, tele):
        cs, cols = example_circuit()
        report = CircuitReport.from_constraint_system(cs, EXAMPLE_K)
        assert report.k == EXAMPLE_K and report.rows == 32
        assert report.usable_rows == 32 - ZK_ROWS and report.zk_rows == ZK_ROWS
        assert report.fingerprint == cs.fingerprint()
        assert (report.fixed_columns, report.advice_columns) == (5, 3)
        assert (report.instance_columns, report.equality_columns) == (1, 2)
        assert [g.name for g in report.gates] == ["add", "mul", "out"]
        assert [g.max_degree for g in report.gates] == [2, 3, 2]
        assert report.num_constraints == 3
        assert report.max_gate_degree == 3
        # mul gate 3 + 1 = two-column permutation chunk 2 + 2 = range16
        # helper active * (h * (beta + q_range * a) - 1): 1 + 1 + 2
        assert report.required_degree == 4
        assert report.extended_k == 7  # 5 + ceil(log2(4 - 1))
        (lookup,) = report.lookups
        assert (lookup.name, lookup.width, lookup.degree) == ("range16", 1, 4)
        assert (report.lookup_tables, report.lookup_helper_columns) == (1, 1)
        assert report.range_limbs == report.as_dict()["range_limbs"] == 1
        assert report.copies == 2
        assert report.permutation_grand_products == 1  # ceil(2/3)
        assert report.operator_constraints == {"other": 2, "project": 1}
        # advice 3 + 1 table * (m + phi) + 1 helper + 1 perm product
        # + 3 quotient chunks + f of the opening argument
        assert report.estimated_commit_msms() == 11
        assert report.commitment_msm_sizes()["quotient_chunks"] == 3
        assert report.as_dict()["estimated_commit_msms"] == 11
        # {x} and {x, omega x}; Z and phi spend their 3 random rows on
        # two rotations and the opening argument's q(x3).
        assert (report.opening_point_sets, report.zk_margin) == (2, 0)
        assert report.as_dict()["opening_point_sets"] == 2
        rendered = report.render()
        assert "range16" in rendered and "constraints by operator" in rendered
        assert "1 IPA over 2 point sets, zk margin 0" in rendered
        assert "lookups=1 (tables=1, helper columns=1)" in rendered
        # 3 gates, the lookup's input and table and 2 equality queries:
        # 7 trees of 28 nodes, compiled to 9 leaves, 5 products and 3
        # linear ops (a + b - c, a * b - c, c - out).
        assert (report.expressions, report.expression_nodes) == (7, 28)
        assert report.program_ops == {"leaves": 9, "products": 5, "linear": 3}
        assert "7 trees of 28 nodes -> program of 17 ops" in rendered

        # The proof is what the model says: its commitments ([f]
        # included), quotient chunks and lookup helpers, and the points
        # its transforms cover -- every committed or instance column
        # once over the n rows and once over the 2^extended_k coset,
        # plus the quotient's own inverse transform.
        asg, _ = example_assignment(cs, cols)
        pk = keygen(setup(EXAMPLE_K), cs, SCALAR_FIELD, EXAMPLE_K, asg.fixed)
        before = tele.counters_snapshot().get("fft.points", 0)
        proof = create_proof(pk, asg)
        fft_points = tele.counters_snapshot()["fft.points"] - before
        commitments = report.estimated_commit_msms()
        assert sum(is_point for *_, is_point in proof.leaves()) == commitments
        assert len(proof.h_commitments) == report.quotient_chunks
        assert len(proof.lookup_helper_commitments) == (
            report.lookup_helper_columns
        )
        # Every commitment but the quotient chunks and [f] is a column.
        columns = (
            commitments - report.quotient_chunks - 1 + report.instance_columns
        )
        assert fft_points == (
            columns * report.rows + (columns + 1) * (1 << report.extended_k)
        )

    def test_tpch_query_report(self):
        from repro.sql.compiler import QueryCompiler
        from repro.sql.parser import parse
        from repro.sql.planner import Planner
        from repro.tpch.datagen import generate
        from repro.tpch.queries import QUERIES

        db = generate(8)
        plan = Planner(db).plan(parse(QUERIES["Q1"]))
        compiled = QueryCompiler(db, 8, 4, 32, 40).compile(plan)
        report = CircuitReport.from_constraint_system(compiled.cs, 8)
        assert report.rows == 256
        assert report.num_constraints == compiled.cs.num_constraints()
        assert report.required_degree >= report.max_gate_degree + 1
        assert report.extended_k > 8
        # Q1 is aggregation-heavy: the operator decomposition must say so.
        assert report.operator_constraints.get("aggregate", 0) > 0
        assert sum(report.operator_constraints.values()) == report.num_constraints
        assert report.lookups  # range checks from filters/decompositions
        assert report.estimated_commit_msms() > report.advice_columns


class TestInstrumentedProve:
    def test_selfcheck_phases_and_counters(self, tele):
        root = run_instrumented_prove()
        child_names = {c.name for c in root.children}
        assert set(EXPECTED_PHASES) <= child_names
        assert sum(span.name == "ipa.open" for span in root.walk()) == 1
        report = telemetry.phase_report(root, tele.counters_snapshot())
        assert report["phase_coverage"] >= 0.95
        counters = report["counters"]
        for name in ("msm.calls", "msm.points", "fft.calls", "field.inversions"):
            assert counters.get(name, 0) > 0, name

    def test_example_circuit_is_provable_fixture(self):
        # Keep the shared fixture honest independent of telemetry.
        cs, cols = example_circuit()
        asg, result = example_assignment(cs, cols, x=2, y=3, z=4)
        assert result == 60
        assert asg.usable_rows == 32 - ZK_ROWS


class TestSessionReport:
    @pytest.fixture()
    def tiny_db(self):
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [ColumnDef("a", INT), ColumnDef("grp", STRING), ColumnDef("v", INT)],
                primary_key="a",
            ),
            [(1, "x", 10), (2, "y", 20), (3, "x", 30)],
        )
        return db

    def test_prove_report_coverage(self, tiny_db, tmp_path):
        config = ProverConfig(
            k=6, limb_bits=4, value_bits=16, key_bits=16,
            cache_dir=tmp_path / "cache", telemetry=True,
        )
        was_enabled = telemetry.enabled()
        with PoneglyphDB.open(tiny_db, config) as session:
            assert telemetry.enabled()
            response = session.prove("select count(*) as n from t")
            verification = session.verify(response)
        assert telemetry.enabled() == was_enabled  # restored on close
        assert verification.accepted
        assert verification.elapsed_seconds > 0
        report = response.report
        assert report is not None and report["span"] == "prove"
        assert report["phase_coverage"] >= 0.95
        expected = {
            "compile", "witness", "keygen", "commit_advice",
            "lookup_commit", "grand_products", "quotient",
            "evaluations", "multiopen",
        }
        assert expected <= set(report["phases"])
        assert abs(
            sum(report["phases"].values()) - report["total_seconds"]
        ) <= 0.05 * report["total_seconds"]
        assert report["counters"].get("msm.fixed_base_points", 0) > 0
        assert report["counters"].get("msm.points", 0) == 0
        assert report["gauges"].get("proof.bytes", 0) > 0
        # timing stays populated alongside the report.
        assert response.timing.total > 0

    def test_report_absent_when_disabled(self, tiny_db, tmp_path):
        config = ProverConfig(
            k=6, limb_bits=4, value_bits=16, key_bits=16,
            cache_dir=tmp_path / "cache",
        )
        with PoneglyphDB.open(tiny_db, config) as session:
            response = session.prove("select count(*) as n from t")
            assert session.verify(response).accepted
        assert response.report is None
        assert response.timing.total > 0  # Stopwatch path still measures
