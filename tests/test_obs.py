"""The observability layer: the metrics registry, the error ring, and
the proving service's health surface.

Pins the layer's guarantees: snapshot methods return copies (mutating
a snapshot never mutates the registry), a runner's counters merge into
the service's, ``health()`` reports workers, queue, jobs and recent
failures from the service's own records, and every service job gets
one stitched trace keyed by ``job_id``.
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
from repro.service.service import ERROR_RING_CAPACITY, ErrorRing
from repro.system import ProverNode
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture()
def tele():
    previous = telemetry.enable(True)
    telemetry.reset()
    yield telemetry
    telemetry.reset()
    telemetry.enable(previous)


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_snapshots_are_copies(self):
        """Mutating anything a snapshot method returned must never
        reach back into the registry."""
        reg = MetricsRegistry()
        reg.incr("jobs", 3)
        reg.gauge("depth", 7)

        counters = reg.counters_snapshot()
        counters["jobs"] = 999
        counters["injected"] = 1
        gauges = reg.gauges_snapshot()
        gauges["depth"] = -1
        summary = reg.summary()
        summary["counters"]["jobs"] = -5
        summary["gauges"].clear()

        assert reg.counters_snapshot() == {"jobs": 3}
        assert reg.gauges_snapshot() == {"depth": 7}
        assert reg.summary() == {
            "counters": {"jobs": 3},
            "gauges": {"depth": 7},
        }

    def test_ambient_snapshots_are_copies(self, tele):
        tele.incr("obs.test_counter", 2)
        tele.metrics_summary()["counters"]["obs.test_counter"] = 0
        tele.counters_snapshot()["obs.test_counter"] = 0
        assert tele.counters_snapshot()["obs.test_counter"] == 2

    def test_merge_adds_counters_and_overwrites_gauges(self):
        reg = MetricsRegistry()
        reg.incr("c", 3)
        reg.gauge("g", 1.0)
        reg.merge(counters={"c": 2, "d": 1}, gauges={"g": 5.0})
        assert reg.counters_snapshot() == {"c": 5, "d": 1}
        assert reg.gauges_snapshot() == {"g": 5.0}

    def test_merge_takes_either_half_alone(self):
        reg = MetricsRegistry()
        reg.incr("c", 1)
        reg.gauge("g", 2.0)
        reg.merge(counters={"c": 4})
        reg.merge(gauges={"h": 3.0})
        reg.merge()
        assert reg.counters_snapshot() == {"c": 5}
        assert reg.gauges_snapshot() == {"g": 2.0, "h": 3.0}

    def test_concurrent_increments_are_exact(self):
        """Every mutation takes the one lock, so no increment from
        racing threads is lost."""
        reg = MetricsRegistry()
        threads, per_thread = 4, 2000

        def bump(i):
            for _ in range(per_thread):
                reg.incr("hits")
                reg.incr("weighted", 0.5)
            reg.gauge(f"thread.{i}", i)

        pool = [
            threading.Thread(target=bump, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert reg.counters_snapshot() == {
            "hits": threads * per_thread,
            "weighted": threads * per_thread * 0.5,
        }
        assert reg.gauges_snapshot() == {
            f"thread.{i}": i for i in range(threads)
        }

    def test_reset_empties_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.incr("c")
        reg.gauge("g", 1.0)
        reg.reset()
        assert reg.summary() == {"counters": {}, "gauges": {}}
        reg.incr("c")
        assert reg.counters_snapshot() == {"c": 1}

    def test_after_fork_replaces_a_lock_left_held(self):
        """A forked child inherits the lock in whatever state a parent
        thread left it; ``after_fork`` gives the child a free one."""
        reg = MetricsRegistry()
        reg.incr("c")
        held = reg._lock
        held.acquire()
        try:
            reg.after_fork()
            done = threading.Event()

            def mutate():
                reg.incr("c")
                reg.gauge("g", 1.0)
                done.set()

            threading.Thread(target=mutate, daemon=True).start()
            assert done.wait(timeout=10), "registry still on the held lock"
        finally:
            held.release()
        assert reg.counters_snapshot() == {"c": 2}


class TestErrorRing:
    def test_record_and_evict(self):
        ring = ErrorRing(capacity=2)
        for i in range(4):
            ring.record(f"boom-{i}", job_id=f"job-{i}")
        snapshot = ring.snapshot()
        assert [entry["error"] for entry in snapshot] == ["boom-2", "boom-3"]
        assert snapshot[0]["job_id"] == "job-2"
        snapshot[0]["error"] = "mutated"
        assert ring.snapshot()[0]["error"] == "boom-2"

    def test_default_capacity_and_string_fields(self):
        """The ring keeps ``ERROR_RING_CAPACITY`` failures by default,
        and stores every field as a string, so a snapshot is plain
        JSON whatever the caller passed."""
        ring = ErrorRing()
        for i in range(ERROR_RING_CAPACITY + 3):
            ring.record(RuntimeError(f"boom-{i}"), job_id=i, attempt=i % 2)
        snapshot = ring.snapshot()
        assert len(snapshot) == ERROR_RING_CAPACITY
        assert snapshot[0]["error"] == "boom-3"
        assert snapshot[-1] == {
            "ts": snapshot[-1]["ts"],
            "error": f"boom-{ERROR_RING_CAPACITY + 2}",
            "job_id": str(ERROR_RING_CAPACITY + 2),
            "attempt": "0",
        }
        assert all(entry["ts"] > 0 for entry in snapshot)
        json.dumps(snapshot)

    def test_snapshot_while_recording_from_threads(self):
        ring = ErrorRing(capacity=8)
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(len(ring.snapshot()))

        watcher = threading.Thread(target=reader)
        watcher.start()
        writers = [
            threading.Thread(
                target=lambda w=w: [
                    ring.record(f"w{w}-{i}") for i in range(500)
                ]
            )
            for w in range(3)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        stop.set()
        watcher.join(timeout=30)
        assert seen and max(seen) <= 8
        final = ring.snapshot()
        assert len(final) == 8
        # Each writer's records stay in the order it made them.
        for w in range(3):
            mine = [e["error"] for e in final if e["error"].startswith(f"w{w}-")]
            assert mine == sorted(mine, key=lambda e: int(e.split("-")[1]))


# -- service health -----------------------------------------------------------


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
    def test_health_under_concurrent_submitters(self, stub_session):
        session, _ = stub_session
        results = {}
        with session.serve(ServiceConfig(workers=2)) as service:

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
            assert service.stats()["workers"]["prover-worker-0"] == {
                "completed": 1,
                "failed": 1,
            }

    def test_shed_job_counts_in_health(self, stub_session):
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
            assert service.health()["queue"]["shed_count"] == 1
            assert service.stats()["jobs"] == {"RUNNING": 1, "QUEUED": 1}
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
