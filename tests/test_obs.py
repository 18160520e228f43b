"""The observability layer: metrics registry, Prometheus exposition,
event log / error ring, and the proving service's health/metrics
surface.

Pins the layer's guarantees: snapshot methods return deep copies
(mutating a snapshot never mutates the registry), histogram merge is
exact across fork snapshots, ``metrics_text()`` emits *valid*
Prometheus text format (checked by the strict parser, not eyeballed),
and every service job gets one stitched trace keyed by ``job_id``.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro import PoneglyphDB, ProverConfig, ServiceConfig, telemetry
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING
from repro.errors import JobFailed, ServiceOverloaded
from repro.service import JobState, Priority
from repro.system import ProverNode
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.telemetry.obs import ErrorRing, EventLog
from repro.telemetry import promtext


@pytest.fixture()
def tele():
    previous = telemetry.enable(True)
    telemetry.reset()
    yield telemetry
    telemetry.reset()
    telemetry.enable(previous)


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_histogram_observe_and_summary(self):
        reg = MetricsRegistry()
        for ms in (1, 2, 3, 4, 100):
            reg.observe("prove.seconds", ms / 1000.0)
        snap = reg.histogram("prove.seconds")
        assert snap is not None
        assert snap.count == 5
        assert snap.sum == pytest.approx(0.110)
        assert snap.min == pytest.approx(0.001)
        assert snap.max == pytest.approx(0.100)
        summary = snap.summary()
        assert summary["count"] == 5
        # Quantiles are bucket estimates clamped to [min, max].
        assert snap.min <= summary["p50"] <= summary["p95"] <= snap.max
        assert summary["p99"] <= snap.max

    def test_bounds_inferred_from_name(self):
        reg = MetricsRegistry()
        reg.observe("verify.seconds", 0.5)
        reg.observe("msm.points_per_call", 300)
        assert reg.histogram("verify.seconds").bounds == LATENCY_BUCKETS
        assert reg.histogram("msm.points_per_call").bounds == SIZE_BUCKETS

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.observe("prove.phase_seconds", 0.1, labels={"phase": "quotient"})
        reg.observe("prove.phase_seconds", 0.2, labels={"phase": "multiopen"})
        reg.observe("prove.phase_seconds", 0.3, labels={"phase": "multiopen"})
        quotient = reg.histogram(
            "prove.phase_seconds", labels={"phase": "quotient"}
        )
        multiopen = reg.histogram(
            "prove.phase_seconds", labels={"phase": "multiopen"}
        )
        assert quotient.count == 1
        assert multiopen.count == 2
        assert reg.histogram("prove.phase_seconds") is None  # unlabelled

    def test_snapshots_are_deep_copies(self):
        """Mutating anything a snapshot method returned must never
        reach back into the registry (the satellite regression)."""
        reg = MetricsRegistry()
        reg.incr("jobs", 3)
        reg.gauge("depth", 7)
        reg.observe("wait.seconds", 0.25)

        counters = reg.counters_snapshot()
        counters["jobs"] = 999
        counters["injected"] = 1
        gauges = reg.gauges_snapshot()
        gauges["depth"] = -1
        summary = reg.summary()
        summary["counters"]["jobs"] = -5
        summary["histograms"].clear()

        assert reg.counters_snapshot() == {"jobs": 3}
        assert reg.gauges_snapshot() == {"depth": 7}
        assert reg.summary()["histograms"]  # still there
        # Histogram snapshots are frozen dataclasses with tuple state.
        snap = reg.histogram("wait.seconds")
        with pytest.raises(Exception):
            snap.count = 0

    def test_ambient_snapshots_are_copies(self, tele):
        tele.incr("obs.test_counter", 2)
        tele.metrics_summary()["counters"]["obs.test_counter"] = 0
        tele.counters_snapshot()["obs.test_counter"] = 0
        assert tele.counters_snapshot()["obs.test_counter"] == 2

    def test_merge_is_exact_for_matching_layouts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.001, 0.004, 0.5):
            a.observe("x.seconds", value)
        for value in (0.002, 8.0):
            b.observe("x.seconds", value)
        a.merge(
            counters={"c": 2},
            gauges={"g": 1.0},
            histograms=b.histograms_as_dicts(),
        )
        merged = a.histogram("x.seconds")
        assert merged.count == 5
        assert merged.sum == pytest.approx(0.001 + 0.004 + 0.5 + 0.002 + 8.0)
        assert merged.min == pytest.approx(0.001)
        assert merged.max == pytest.approx(8.0)
        # Bucket-wise addition: totals match an all-in-one registry.
        one = MetricsRegistry()
        for value in (0.001, 0.004, 0.5, 0.002, 8.0):
            one.observe("x.seconds", value)
        assert merged.counts == one.histogram("x.seconds").counts

    def test_merge_layout_clash_keeps_mass(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("y", 1.0, bounds=(1.0, 2.0))
        b.observe("y", 3.0, bounds=(10.0, 20.0))
        a.merge(histograms=b.histograms_as_dicts())
        merged = a.histogram("y")
        assert merged.count == 2
        assert merged.sum == pytest.approx(4.0)

    def test_snapshot_round_trips_as_dict(self):
        reg = MetricsRegistry()
        reg.observe("z.seconds", 0.125, labels={"lane": "HIGH"})
        snap = reg.histogram("z.seconds", labels={"lane": "HIGH"})
        assert HistogramSnapshot.from_dict(snap.as_dict()) == snap

    def test_empty_histogram_quantiles(self):
        snap = HistogramSnapshot(name="empty")
        assert snap.quantile(0.5) == 0.0
        assert snap.summary()["count"] == 0


# -- Prometheus exposition ----------------------------------------------------


class TestPromtext:
    def exposition(self):
        reg = MetricsRegistry()
        reg.incr("msm.calls", 42)
        reg.gauge("service.queue_depth", 3)
        for value in (0.01, 0.02, 0.04, 1.5):
            reg.observe("prove.seconds", value)
        reg.observe("prove.phase_seconds", 0.3, labels={"phase": "multiopen"})
        return promtext.render_registry(reg)

    def test_render_parses_strictly(self):
        samples = promtext.parse(self.exposition())
        assert samples["repro_msm_calls_total"] == [({}, 42.0)]
        assert samples["repro_service_queue_depth"] == [({}, 3.0)]
        buckets = samples["repro_prove_seconds_bucket"]
        assert buckets[-1][0]["le"] == "+Inf"
        assert buckets[-1][1] == 4.0
        # Bucket counts are cumulative and monotone.
        values = [value for _, value in buckets]
        assert values == sorted(values)
        assert samples["repro_prove_seconds_count"] == [({}, 4.0)]
        assert samples["repro_prove_seconds_sum"][0][1] == pytest.approx(1.57)

    def test_summary_quantiles_exposed(self):
        samples = promtext.parse(self.exposition())
        quantiles = {
            entry[0]["quantile"]: entry[1]
            for entry in samples["repro_prove_seconds_summary"]
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert quantiles["0.5"] <= quantiles["0.95"] <= quantiles["0.99"]

    def test_labels_survive(self):
        samples = promtext.parse(self.exposition())
        phase_buckets = samples["repro_prove_phase_seconds_bucket"]
        assert all(entry[0]["phase"] == "multiopen" for entry in phase_buckets)

    def test_metric_name_sanitized(self):
        assert promtext.metric_name("msm.points_per_call") == (
            "repro_msm_points_per_call"
        )
        assert promtext.metric_name("9weird-name!") == "repro_m_9weird_name_"
        assert promtext.parse("")== {}

    def test_parse_rejects_undeclared_and_malformed(self):
        with pytest.raises(ValueError, match="no TYPE"):
            promtext.parse("mystery_metric 1\n")
        with pytest.raises(ValueError, match="bad value"):
            promtext.parse(
                "# TYPE repro_x counter\nrepro_x notanumber\n"
            )
        with pytest.raises(ValueError, match="unparsable"):
            promtext.parse("# TYPE repro_x counter\n}{ 1\n")


# -- event log + error ring ---------------------------------------------------


class TestEventLog:
    def test_ring_is_bounded_and_ordered(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", n=i)
        tail = log.tail()
        assert [event["n"] for event in tail] == [2, 3, 4]
        assert [event["n"] for event in log.tail(2)] == [3, 4]
        assert log.emitted == 5
        assert all(event["ts"] > 0 for event in tail)

    def test_file_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "events" / "log.jsonl"
        with EventLog(path=path) as log:
            log.emit("submitted", job_id="job-1", queue_depth=0)
            log.emit("started", job_id="job-1", worker=object())
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [line["event"] for line in lines] == ["submitted", "started"]
        assert lines[0]["queue_depth"] == 0
        # Non-scalar fields are stringified, never crash the emitter.
        assert isinstance(lines[1]["worker"], str)

    def test_broken_sink_disables_but_never_raises(self, tmp_path):
        log = EventLog(path=tmp_path / "log.jsonl")
        log.emit("ok")
        log._handle.close()  # simulate the disk going away mid-flight
        log.emit("after-break")  # must not raise
        log.emit("still-fine")
        assert log.write_errors == 1  # disabled after the first failure
        assert [event["event"] for event in log.tail()] == [
            "ok", "after-break", "still-fine",
        ]
        log.close()


class TestErrorRing:
    def test_record_and_evict(self):
        ring = ErrorRing(capacity=2)
        for i in range(4):
            ring.record(f"boom-{i}", job_id=f"job-{i}")
        assert ring.total == 4
        assert len(ring) == 2
        snapshot = ring.snapshot()
        assert [entry["error"] for entry in snapshot] == ["boom-2", "boom-3"]
        snapshot[0]["error"] = "mutated"
        assert ring.snapshot()[0]["error"] == "boom-2"


# -- service health + exposition ---------------------------------------------


SQL = "select count(*) as n from t"


def make_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [ColumnDef("a", INT), ColumnDef("grp", STRING)],
            primary_key="a",
        ),
        [(1, "x"), (2, "y"), (3, "x")],
    )
    return db


@pytest.fixture()
def stub_session(monkeypatch, tele):
    """A committed session whose provers answer quickly under a
    telemetry span (so jobs produce stitched traces), with a fork-safe
    gate for blocking (worker 1 proves in a forked runner) and crash
    injection."""
    gate = multiprocessing.get_context("fork").Event()

    def fake_answer(self, sql):
        with telemetry.span("prove", sql=sql):
            with telemetry.span("prove.stub_phase"):
                if sql.startswith("block"):
                    assert gate.wait(timeout=30), "test gate never released"
                elif sql.startswith("q"):
                    # Long enough that concurrent jobs spread over both
                    # workers of a two-worker service.
                    time.sleep(0.02)
            if sql.startswith("crash"):
                raise RuntimeError("injected prover crash")
        return f"response:{sql}"

    monkeypatch.setattr(ProverNode, "answer", fake_answer)
    config = ProverConfig(
        k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False
    )
    with PoneglyphDB.open(make_db(), config) as session:
        session.commit()
        yield session, gate


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestServiceObservability:
    def test_health_and_metrics_under_concurrent_submitters(
        self, stub_session, tmp_path
    ):
        session, _ = stub_session
        config = ServiceConfig(
            workers=2, event_log_path=tmp_path / "events.jsonl"
        )
        results = {}
        with session.serve(config) as service:

            def client(i):
                job = service.submit(f"q{i}")
                results[i] = service.wait(job, timeout=10)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert results == {i: f"response:q{i}" for i in range(8)}

            health = service.health()
            assert health["healthy"] is True
            assert health["closed"] is False
            assert health["uptime_seconds"] > 0
            assert set(health["queue"]["depths"]) == {
                lane.name for lane in Priority
            }
            assert health["queue"]["shed_count"] == 0
            assert health["jobs"] == {"DONE": 8}
            assert health["last_errors"] == []
            workers = health["workers"]
            assert len(workers) == 2
            assert all(info["alive"] for info in workers.values())
            assert (
                sum(info["completed"] for info in workers.values()) == 8
            )
            # Worker 1 proved in its own process, and its jobs count in
            # every total below.
            assert workers["prover-worker-1"]["completed"] >= 1
            assert workers["prover-worker-0"]["pid"] == os.getpid()
            assert workers["prover-worker-1"]["pid"] != os.getpid()

            # The exposition is valid Prometheus text format and the
            # prove-latency histogram saw every job.
            samples = promtext.parse(service.metrics_text())
            assert samples["repro_service_prove_seconds_count"] == [({}, 8.0)]
            quantiles = {
                entry[0]["quantile"]
                for entry in samples["repro_service_prove_seconds_summary"]
            }
            assert quantiles == {"0.5", "0.95", "0.99"}
            assert samples["repro_service_queue_depth"] == [({}, 0.0)]
            assert samples["repro_service_workers_alive"] == [({}, 2.0)]
            wait_samples = samples["repro_service_queue_wait_seconds_count"]
            assert wait_samples == [({}, 8.0)]

            # Structured events: one submitted/started/finished triple
            # per job, with queue depth stamped at submission.
            events = service.events()
            by_kind = {}
            for event in events:
                by_kind.setdefault(event["event"], []).append(event)
            assert len(by_kind["submitted"]) == 8
            assert len(by_kind["started"]) == 8
            assert len(by_kind["finished"]) == 8
            assert all(
                "queue_depth" in event for event in by_kind["submitted"]
            )
        # After close: event log flushed to disk, health reports closed.
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert sum(1 for line in lines if line["event"] == "finished") == 8
        assert lines[-1]["event"] == "closed"
        health = service.health()
        assert health["closed"] is True
        assert health["healthy"] is False

    def test_lost_journal_makes_the_service_unhealthy(
        self, stub_session, tmp_path
    ):
        """A journal that self-disabled after a write error is lost
        durability: health must say so, not stay green."""
        session, _ = stub_session
        journal_path = tmp_path / "jobs.journal"
        with session.serve(
            ServiceConfig(workers=1), journal_path=journal_path
        ) as service:
            service.wait(service.submit("q-before"), timeout=10)
            assert service.health()["healthy"] is True
            # The journal's file turns unwritable under the running
            # service.
            service.journal._handle.close()
            service.journal._handle = open(journal_path, "rb")
            service.wait(service.submit("q-after"), timeout=10)
            health = service.health()
            assert health["journal"]["active"] is False
            assert health["workers"]["prover-worker-0"]["alive"]
            assert health["healthy"] is False
        assert telemetry.counters_snapshot()["service.journal_errors"] >= 1

    def test_worker_crash_surfaces_in_health(self, stub_session):
        session, _ = stub_session
        before = telemetry.counters_snapshot().get("service.jobs_failed", 0)
        with session.serve(ServiceConfig(workers=1)) as service:
            bad = service.submit("crash-1")
            with pytest.raises(JobFailed, match="injected prover crash"):
                service.wait(bad, timeout=10)
            good = service.submit("ok-after")
            service.wait(good, timeout=10)

            health = service.health()
            assert health["healthy"] is True  # the worker survived
            assert health["jobs"]["FAILED"] == 1
            (entry,) = health["last_errors"]
            assert "injected prover crash" in entry["error"]
            assert entry["job_id"] == str(bad)
            failed_events = [
                event for event in service.events()
                if event["event"] == "failed"
            ]
            assert len(failed_events) == 1
            assert failed_events[0]["job_id"] == str(bad)
        after = telemetry.counters_snapshot().get("service.jobs_failed", 0)
        assert after == before + 1

    def test_shed_job_emits_event(self, stub_session):
        session, gate = stub_session
        config = ServiceConfig(
            workers=1, max_queue_depth=2, high_priority_reserve=1
        )
        with session.serve(config) as service:
            blocker = service.submit("block-0")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            service.submit("q1")
            with pytest.raises(ServiceOverloaded):
                service.submit("q2")
            shed = [
                event for event in service.events()
                if event["event"] == "shed"
            ]
            assert len(shed) == 1
            assert shed[0]["priority"] == "NORMAL"
            assert service.health()["queue"]["shed_count"] == 1
            gate.set()

    def test_jobs_get_stitched_traces(self, stub_session, tmp_path):
        """N jobs => N per-job span trees, recoverable from the trace
        file by the stamped job_id."""
        session, _ = stub_session
        with session.serve(ServiceConfig(workers=2)) as service:
            jobs = [service.submit(f"q{i}") for i in range(4)]
            for job in jobs:
                service.wait(job, timeout=10)
            statuses = {job: service.status(job) for job in jobs}
        trace_path = tmp_path / "trace.jsonl"
        telemetry.write_trace(trace_path, telemetry.get_tracer())
        trace = telemetry.read_trace(trace_path)
        grouped = trace.job_roots()
        for job, status in statuses.items():
            assert status.trace_id.startswith("trace-")
            (root,) = grouped[str(job)]
            assert root.attrs["trace_id"] == status.trace_id
            assert root.name == "prove"
            assert [c.name for c in root.children] == ["prove.stub_phase"]
        # Distinct jobs, distinct traces -- worker 1's included, shipped
        # back from its runner process.
        assert len({s.trace_id for s in statuses.values()}) == 4
        assert any(s.worker == "prover-worker-1" for s in statuses.values())

    def test_span_path_reported_while_running(self, stub_session):
        session, gate = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("block-1")
            assert wait_for(
                lambda: service.status(job).span_path
                == "prove/prove.stub_phase"
            )
            gate.set()
            service.wait(job, timeout=10)
            assert service.status(job).span_path == ""
