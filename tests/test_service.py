"""The async proving service: queue semantics, worker farm, batching.

Two layers of tests:

- Real-crypto end-to-end (module-scoped fixture, small k): submitted
  jobs produce proofs **byte-identical** to the synchronous
  ``Session.prove`` path under the same pinned blinding seed, and
  ``batch_verify`` accepts the batch while amortizing its MSMs.
- Scheduler-only tests with a stubbed ``ProverNode.answer``: priority
  ordering, load shedding, crash containment, cancellation, timeouts.
  These pin the service's concurrency behavior deterministically
  without paying for proofs.

Worker 0 proves in this process; worker 1 and up in forked runner
processes.  A stub or gate a job on worker 1 must see is therefore
fork-safe (a ``multiprocessing`` event from the fork context), and
:func:`hold_worker_0` pins a job onto a runner.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import PoneglyphDB, ProverConfig, ServiceConfig, telemetry
from repro.algebra import SCALAR_FIELD
from repro.algebra.field import deterministic_rng
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING
from repro.errors import (
    ConfigError,
    JobFailed,
    JobNotFound,
    ServiceClosed,
    ServiceOverloaded,
    StateError,
)
from repro.service import JobState, Priority, ProvingService, replay
from repro.service.runner import ForkedRunner
from repro.system import ProverNode
from tests.chaos import ChaosInjector, ChaosService, runner_processes

SQL_COUNT = "select count(*) as n from t"
SQL_SUM = "select sum(v) as s from t where v < 40"
SEED_COUNT = 0xC0DE
SEED_SUM = 0xBEEF

#: A job that blocks on the test's gate in this process (worker 0) and
#: answers at once in a runner process.
HOLD = "hold"


def fork_event():
    return multiprocessing.get_context("fork").Event()


def hold_worker_0(service):
    """Park worker 0 -- this process -- on a ``HOLD`` job, so the next
    job has to run on a forked runner.  Returns the held job."""
    for _ in range(50):
        job = service.submit(HOLD)
        assert wait_for(lambda: service.status(job).worker is not None)
        if service.status(job).worker == "prover-worker-0":
            return job
        service.wait(job, timeout=30)  # a runner answered it at once
    raise AssertionError("worker 0 never took a held job")


def hold_in_this_process(monkeypatch, gate):
    """The real prover, except that ``HOLD`` waits on ``gate`` here
    and answers at once in a runner process."""
    service_pid = os.getpid()
    real_answer = ProverNode.answer

    def answer(self, sql, *args, **kwargs):
        if sql != HOLD:
            return real_answer(self, sql, *args, **kwargs)
        if os.getpid() == service_pid:
            assert gate.wait(timeout=60), "test gate never released"
        return f"response:{sql}"

    monkeypatch.setattr(ProverNode, "answer", answer)


def make_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [ColumnDef("a", INT), ColumnDef("grp", STRING), ColumnDef("v", INT)],
            primary_key="a",
        ),
        [
            (1, "x", 10),
            (2, "y", 20),
            (3, "x", 30),
            (4, "y", 40),
            (5, "x", 50),
        ],
    )
    return db


@pytest.fixture(scope="module")
def real_run():
    """One committed session, two synchronous proofs with pinned
    blinding seeds, and the same two queries proved again through a
    2-worker service with the same seeds."""
    config = ProverConfig(
        k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False,
        telemetry=True,
    )
    with PoneglyphDB.open(make_db(), config) as session:
        session.commit()
        with deterministic_rng(SEED_COUNT):
            sync_count = session.prove(SQL_COUNT)
        with deterministic_rng(SEED_SUM):
            sync_sum = session.prove(SQL_SUM)
        with session.serve(ServiceConfig(workers=2)) as service:
            job_count = service.submit(SQL_COUNT, rng_seed=SEED_COUNT)
            job_sum = service.submit(SQL_SUM, rng_seed=SEED_SUM)
            async_count = service.wait(job_count, timeout=300)
            async_sum = service.wait(job_sum, timeout=300)
            statuses = {
                job_count: service.status(job_count),
                job_sum: service.status(job_sum),
            }
            stats = service.stats()
        yield {
            "session": session,
            "sync": {"count": sync_count, "sum": sync_sum},
            "async": {"count": async_count, "sum": async_sum},
            "jobs": {"count": job_count, "sum": job_sum},
            "statuses": statuses,
            "stats": stats,
        }


class TestRealService:
    def test_submitted_proofs_byte_identical_to_sync(self, real_run):
        for name in ("count", "sum"):
            sync, job = real_run["sync"][name], real_run["async"][name]
            assert job.wire_bytes() == sync.wire_bytes()
            assert job.result == sync.result

    def test_async_responses_verify(self, real_run):
        session = real_run["session"]
        for name in ("count", "sum"):
            assert session.verify(real_run["async"][name]).accepted

    def test_done_status_shape(self, real_run):
        for status in real_run["statuses"].values():
            assert status.state == JobState.DONE
            assert status.state.finished
            assert status.queue_position is None
            assert status.error is None
            assert status.worker is not None and "worker" in status.worker
            assert status.started_at >= status.submitted_at
            assert status.finished_at >= status.started_at
            assert status.elapsed_seconds > 0

    def test_phase_progress_recorded(self, real_run):
        """The worker mirrors the prover's telemetry spans onto the
        job: a finished job exposes per-phase durations."""
        phases = [s.phases for s in real_run["statuses"].values()]
        assert any(ph for ph in phases)  # telemetry on => phases seen
        for ph in phases:
            for duration in ph.values():
                assert duration >= 0

    def test_stats_counts_completions(self, real_run):
        stats = real_run["stats"]
        assert stats["jobs"].get("DONE") == 2
        assert stats["shed_count"] == 0
        assert sum(w["completed"] for w in stats["workers"].values()) == 2

    def test_health_reads_the_same_with_telemetry_off(self, real_run):
        """``health()`` is built from the service's own records, so the
        same two jobs leave the same snapshot whether telemetry is on
        or off (uptime and process ids aside)."""

        def health_after_two_jobs(enabled):
            previous = telemetry.enable(enabled)
            try:
                with real_run["session"].serve(
                    ServiceConfig(workers=1)
                ) as service:
                    for sql, seed in (
                        (SQL_COUNT, SEED_COUNT), (SQL_SUM, SEED_SUM)
                    ):
                        service.wait(
                            service.submit(sql, rng_seed=seed), timeout=300
                        )
                    assert wait_for(
                        lambda: service.health()["workers"][
                            "prover-worker-0"
                        ]["current_job"] is None
                    )
                    health = service.health()
            finally:
                telemetry.enable(previous)
            del health["uptime_seconds"]
            for info in health["workers"].values():
                del info["pid"]
            return health

        off = health_after_two_jobs(False)
        assert off == health_after_two_jobs(True)
        assert off["jobs"] == {"DONE": 2}

    def test_batch_verify_accepts_and_amortizes(self, real_run):
        session = real_run["session"]
        responses = [real_run["async"]["count"], real_run["async"]["sum"]]
        report = session.batch_verify(responses)
        assert report.accepted, report.reason
        assert report.proofs == 2
        assert all(rep.accepted for rep in report.reports)
        # The per-proof base-folding MSMs were actually deferred into
        # the shared accumulator rather than checked eagerly.
        assert report.deferred_openings >= 2
        assert report.finalize_seconds > 0
        assert report.require() is report

    def test_batch_verify_rejects_forged_result(self, real_run):
        import copy

        session = real_run["session"]
        good = real_run["async"]["count"]
        forged = copy.deepcopy(real_run["async"]["sum"])
        forged.result_encoded[0][0] += 1
        report = session.batch_verify([good, forged])
        assert not report.accepted
        assert report.reports[0].accepted
        assert not report.reports[1].accepted
        with pytest.raises(Exception, match="rejected indices \\[1\\]"):
            report.require()


class TestWarmStart:
    def test_open_builds_fixed_base_tables_before_first_job(self, real_run):
        """Opening a service pays the fixed-base table build up front,
        so the first job finds the tables in the registry."""
        from repro import telemetry
        from repro.ecc import fixed_base

        session = real_run["session"]
        fixed_base.clear_registry()
        with session.serve(ServiceConfig(workers=1)) as service:
            fingerprint = session.params.fingerprint()
            key = (fingerprint, fixed_base.FIXED_BASE_WINDOW)
            assert key in fixed_base._REGISTRY
            builds = telemetry.counters_snapshot().get(
                "msm.fixed_base_table_builds", 0
            )
            service.wait(service.submit(SQL_COUNT), timeout=300)
            counters = telemetry.counters_snapshot()
        assert counters.get("msm.fixed_base_table_builds", 0) == builds
        assert counters.get("service.warm_start_errors", 0) == 0


class TestServedAggregate:
    """Served jobs fold into one transportable ``AggProof`` with
    ``session.aggregate``, verified with a single accumulator
    finalize."""

    @pytest.fixture(scope="class")
    def aggregate_run(self, real_run):
        session = real_run["session"]
        with session.serve(ServiceConfig(workers=2)) as service:
            jobs = [
                service.submit(SQL_COUNT, rng_seed=SEED_COUNT),
                service.submit(SQL_SUM, rng_seed=SEED_SUM),
            ]
            agg = session.aggregate(
                [service.wait(job, timeout=300) for job in jobs]
            )
        report = session.verify_aggregate(agg.to_bytes())
        return agg, report

    def test_aggregate_folds_all_jobs_in_order(self, aggregate_run):
        agg, _ = aggregate_run
        assert agg.proofs == 2
        assert [entry.sql for entry in agg.entries] == [SQL_COUNT, SQL_SUM]

    def test_aggregate_verifies_with_one_finalize(self, aggregate_run):
        _, report = aggregate_run
        assert report.accepted, report.reason
        assert report.deferred_openings >= 2

    def test_seeded_jobs_reproduce_sync_proofs(self, aggregate_run, real_run):
        agg, _ = aggregate_run
        sync_sum = real_run["sync"]["sum"]
        assert agg.entries[1].proof_bytes == sync_sum.wire_bytes()

    def test_empty_submissions_rejected(self, real_run):
        with pytest.raises(ValueError, match="cannot aggregate zero proofs"):
            real_run["session"].aggregate([])


# -- scheduler behavior with a stubbed prover ---------------------------------


@pytest.fixture()
def stub_session(monkeypatch):
    """A committed session whose provers return fake responses
    instantly, with a fork-safe gate to hold a worker mid-job
    (``block*`` jobs on any worker, ``HOLD`` on worker 0 only).

    ``order`` lists the prover calls made in this process -- every call
    of a ``workers=1`` service; a test whose jobs may run on worker 1
    reads order from ``JobStatus`` timestamps instead."""
    gate = fork_event()
    order = []
    service_pid = os.getpid()

    def fake_answer(self, sql):
        if sql.startswith("block") or (
            sql == HOLD and os.getpid() == service_pid
        ):
            assert gate.wait(timeout=30), "test gate never released"
        if sql.startswith("crash"):
            raise RuntimeError("injected prover crash")
        order.append(sql)
        if sql.startswith("blind"):  # draws a blinding factor
            return f"response:{sql}:{SCALAR_FIELD.rand()}"
        return f"response:{sql}"

    monkeypatch.setattr(ProverNode, "answer", fake_answer)
    config = ProverConfig(
        k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False
    )
    with PoneglyphDB.open(make_db(), config) as session:
        session.commit()
        yield session, gate, order


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture()
def counted():
    """Telemetry on for the test; ``counted(name)`` is how far counter
    ``name`` has moved since the test began."""
    previous = telemetry.enable(True)
    before = telemetry.counters_snapshot()
    yield lambda name: (
        telemetry.counters_snapshot().get(name, 0) - before.get(name, 0)
    )
    telemetry.enable(previous)


class TestScheduling:
    def test_status_transitions(self, stub_session):
        session, gate, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("block-1")
            assert wait_for(
                lambda: service.status(job).state == JobState.RUNNING
            )
            with pytest.raises(StateError):
                service.result(job)
            gate.set()
            service.wait(job, timeout=10)
            assert service.status(job).state == JobState.DONE

    def test_priority_ordering(self, stub_session):
        session, gate, order = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            blocker = service.submit("block-0")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            low = service.submit("low", priority=Priority.LOW)
            normal = service.submit("normal", priority=Priority.NORMAL)
            high = service.submit("high", priority=Priority.HIGH)
            # Queued in submission order, ranked in dispatch order.
            assert service.status(high).queue_position == 0
            assert service.status(normal).queue_position == 1
            assert service.status(low).queue_position == 2
            gate.set()
            for job in (low, normal, high):
                service.wait(job, timeout=10)
        assert order == ["block-0", "high", "normal", "low"]

    def test_load_shedding_with_priority_reserve(self, stub_session):
        session, gate, _ = stub_session
        config = ServiceConfig(
            workers=1, max_queue_depth=2, high_priority_reserve=1
        )
        with session.serve(config) as service:
            blocker = service.submit("block-0")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            service.submit("q1")  # depth 0 -> 1, NORMAL bound is 1
            with pytest.raises(ServiceOverloaded) as exc_info:
                service.submit("q2")
            assert exc_info.value.queue_depth == 1
            # HIGH may use the reserved headroom...
            service.submit("q3", priority=Priority.HIGH)
            # ...but respects the hard cap.
            with pytest.raises(ServiceOverloaded):
                service.submit("q4", priority=Priority.HIGH)
            assert service.stats()["shed_count"] == 2
            # A shed job leaves no residue.
            assert service.stats()["jobs"].get("QUEUED", 0) == 2
            gate.set()

    def test_worker_crash_marks_failed_not_hang(self, stub_session):
        session, _, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            bad = service.submit("crash-1")
            with pytest.raises(JobFailed, match="injected prover crash"):
                service.wait(bad, timeout=10)
            assert service.status(bad).state == JobState.FAILED
            assert "RuntimeError" in service.status(bad).error
            # The worker survives and serves the next job.
            good = service.submit("after-crash")
            assert service.wait(good, timeout=10) == "response:after-crash"
            assert service.stats()["workers"]["prover-worker-0"]["failed"] == 1

    def test_malformed_sql_fails_job(self, real_run):
        # With the real prover, a parse error surfaces as FAILED.
        session = real_run["session"]
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("definitely not sql")
            with pytest.raises(JobFailed):
                service.wait(job, timeout=30)
            assert service.status(job).state == JobState.FAILED

    def test_wait_timeout(self, stub_session):
        session, gate, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("block-1")
            with pytest.raises(TimeoutError):
                service.wait(job, timeout=0.05)
            gate.set()
            service.wait(job, timeout=10)

    def test_close_cancels_queued_jobs(self, stub_session):
        session, gate, _ = stub_session
        service = session.serve(ServiceConfig(workers=1))
        blocker = service.submit("block-0")
        assert wait_for(
            lambda: service.status(blocker).state == JobState.RUNNING
        )
        queued = service.submit("never-runs")
        # close() drains the queue synchronously before joining the
        # workers; release the gate slightly later so the blocked
        # worker cannot grab "never-runs" first, then exits cleanly.
        threading.Timer(0.3, gate.set).start()
        service.close()
        assert service.status(queued).state == JobState.CANCELLED
        with pytest.raises(JobFailed, match="cancelled"):
            service.result(queued)
        with pytest.raises(ServiceClosed):
            service.submit("too-late")
        assert not any(worker.is_alive() for worker in service.workers)

    def test_unknown_job_id(self, stub_session):
        session, _, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            with pytest.raises(JobNotFound):
                service.status("job-999999-deadbeef")

    def test_concurrent_submitters(self, stub_session):
        session, _, _ = stub_session
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


class TestCancellation:
    def test_cancel_queued_job(self, stub_session):
        session, gate, order = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            blocker = service.submit("block-0")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            doomed = service.submit("never-runs")
            keeper = service.submit("still-runs")
            service.cancel(doomed)
            assert service.status(doomed).state == JobState.CANCELLED
            with pytest.raises(JobFailed, match="cancelled by client"):
                service.result(doomed)
            # wait() on a cancelled job returns immediately (the done
            # event fired), raising the terminal failure.
            with pytest.raises(JobFailed, match="cancelled"):
                service.wait(doomed, timeout=5)
            gate.set()
            assert service.wait(keeper, timeout=10) == "response:still-runs"
        assert "never-runs" not in order

    def test_cancel_running_or_finished_rejected(self, stub_session):
        session, gate, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("block-1")
            assert wait_for(
                lambda: service.status(job).state == JobState.RUNNING
            )
            with pytest.raises(StateError, match="only queued"):
                service.cancel(job)
            gate.set()
            service.wait(job, timeout=10)
            with pytest.raises(StateError):
                service.cancel(job)
            with pytest.raises(JobNotFound):
                service.cancel("job-999999-deadbeef")


    def test_stats_count_every_finished_state(self, stub_session):
        """``stats()`` and ``health()`` count jobs by state from the job
        table, telemetry on or off: done, failed and cancelled jobs
        each show up once."""
        session, gate, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            blocker = service.submit("block-2")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            doomed = service.submit("never-runs")
            crash = service.submit("crash-2")
            service.cancel(doomed)
            assert service.stats()["jobs"] == {
                "RUNNING": 1, "CANCELLED": 1, "QUEUED": 1,
            }
            gate.set()
            service.wait(blocker, timeout=10)
            with pytest.raises(JobFailed, match="injected prover crash"):
                service.wait(crash, timeout=10)
            stats = service.stats()
            assert stats["jobs"] == {"DONE": 1, "FAILED": 1, "CANCELLED": 1}
            assert service.health()["jobs"] == stats["jobs"]
            assert stats["queue_depth"] == 0 and stats["retries_pending"] == 0


class TestJobTimeout:
    def test_wait_raises_typed_timeout(self, stub_session):
        from repro.errors import JobTimeout, ServiceError

        session, gate, _ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("block-1")
            with pytest.raises(JobTimeout) as excinfo:
                service.wait(job, timeout=0.05)
            # Typed for service callers, still a TimeoutError for
            # pre-existing except clauses, and it names the job.
            assert isinstance(excinfo.value, TimeoutError)
            assert isinstance(excinfo.value, ServiceError)
            assert excinfo.value.job_id == job
            assert str(job) in str(excinfo.value)
            gate.set()
            service.wait(job, timeout=10)


class TestTenantQuotas:
    def test_quota_bounds_active_jobs_per_tenant(self, stub_session, counted):
        session, gate, _ = stub_session
        config = ServiceConfig(
            workers=1,
            tenant_quotas={"acme": 2},
            default_tenant_quota=1,
        )
        with session.serve(config) as service:
            blocker = service.submit("block-0", tenant="acme")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            second = service.submit("q2", tenant="acme")
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit("q3", tenant="acme")
            assert excinfo.value.tenant == "acme"
            assert excinfo.value.quota == 2
            # Unknown tenants get the default quota...
            service.submit("q4", tenant="other")
            with pytest.raises(ServiceOverloaded):
                service.submit("q5", tenant="other")
            # ...and untenanted jobs are never quota-checked.
            service.submit("q6")
            assert counted("service.tenant_rejections") == 2
            gate.set()
            service.wait(second, timeout=10)
            # Finished jobs release quota capacity.
            service.wait(service.submit("q7", tenant="acme"), timeout=10)

    def test_rejection_leaves_no_residue(self, stub_session):
        session, gate, _ = stub_session
        config = ServiceConfig(workers=1, tenant_quotas={"t": 1})
        with session.serve(config) as service:
            blocker = service.submit("block-0", tenant="t")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            with pytest.raises(ServiceOverloaded):
                service.submit("q", tenant="t")
            stats = service.stats()
            assert stats["tenants"] == {"t": 1}
            assert stats["jobs"].get("QUEUED", 0) == 0
            gate.set()


class TestRetriesAndSupervision:
    def test_killed_worker_job_retried_and_farm_respawned(
        self, stub_session, counted
    ):
        session, _, _ = stub_session
        chaos = ChaosInjector(seed=5, kills=1)
        config = ServiceConfig(workers=1, max_retries=2)
        with ChaosService(session, config, chaos) as service:
            job = service.submit("survives-a-kill")
            assert service.wait(job, timeout=30) == "response:survives-a-kill"
            status = service.status(job)
            assert status.attempts == 1  # one kill, one retry
            assert counted("service.workers_killed") == 1
            assert service.workers_restarted >= 1
            health = service.health()
            assert health["workers_restarted"] >= 1
            assert all(w["alive"] for w in health["workers"].values())
            assert len(health["workers"]) == 1  # still exactly one slot

    def test_retry_budget_exhaustion_fails_job(self, stub_session):
        from repro.service.scheduler import WorkerKilled

        session, _, _ = stub_session

        class AlwaysKill(ChaosInjector):
            def on_prove(self, job, worker):
                raise WorkerKilled("chaos: every attempt dies")

        config = ServiceConfig(workers=1, max_retries=1)
        with ChaosService(session, config, AlwaysKill(seed=0)) as service:
            job = service.submit("doomed")
            with pytest.raises(JobFailed, match="died mid-job"):
                service.wait(job, timeout=30)
            assert service.status(job).attempts == 1  # budget spent

    def test_retry_backoff_doubles_up_to_the_cap(
        self, stub_session, monkeypatch, tmp_path
    ):
        """Attempt ``n`` waits ``RETRY_BACKOFF_SECONDS * 2**(n-1)`` times
        a jitter in [1, 1.25), never more than ``RETRY_BACKOFF_MAX``."""
        from repro.service import service as service_mod
        from repro.service.scheduler import WorkerKilled

        session, _, _ = stub_session

        class AlwaysKill(ChaosInjector):
            def on_prove(self, job, worker):
                raise WorkerKilled("chaos: every attempt dies")

        monkeypatch.setattr(service_mod, "RETRY_BACKOFF_SECONDS", 0.01)
        monkeypatch.setattr(service_mod, "RETRY_BACKOFF_MAX", 0.03)
        config = ServiceConfig(workers=1, max_retries=3)
        path = tmp_path / "jobs.journal"
        with ChaosService(
            session, config, AlwaysKill(seed=0), journal_path=path
        ) as service:
            job = service.submit("doomed")
            with pytest.raises(JobFailed, match="died mid-job"):
                service.wait(job, timeout=30)
            backoffs = [
                record["backoff_seconds"]
                for record in service.journal
                if record["rec"] == "retry"
            ]
        assert len(backoffs) == 3
        assert 0.01 <= backoffs[0] < 0.0125
        assert 0.02 <= backoffs[1] < 0.025
        assert backoffs[2] == 0.03  # 0.04 and up, capped

    def test_a_raising_tick_is_counted_and_supervision_goes_on(
        self, counted
    ):
        from repro.service.scheduler import Supervisor

        ticks = []

        def tick():
            ticks.append(None)
            raise RuntimeError("broken tick")

        supervisor = Supervisor(tick, interval=0.001)
        supervisor.start()
        try:
            assert wait_for(lambda: len(ticks) >= 3)
        finally:
            supervisor.request_stop()
            supervisor.join(timeout=10)
        assert counted("service.supervisor_errors") == len(ticks)

    def test_deterministic_failure_never_retried(self, real_run):
        session = real_run["session"]
        config = ServiceConfig(workers=1, max_retries=3)
        with session.serve(config) as service:
            job = service.submit("definitely not sql")
            with pytest.raises(JobFailed):
                service.wait(job, timeout=30)
            # A parse error is a property of the input: retrying would
            # burn three proofs to fail identically, so attempts stays 0.
            assert service.status(job).attempts == 0

    def test_circuit_too_big_for_k_never_retried(self):
        """Q8 at k=7 cannot hold its calendar table: a compile error,
        so a property of the input like a parse error."""
        from repro.tpch import QUERIES, generate

        config = ProverConfig(
            k=7, limb_bits=4, value_bits=32, key_bits=40, use_cache=False
        )
        with PoneglyphDB.open(generate(32, seed=1), config) as session:
            session.commit()
            with session.serve(
                ServiceConfig(workers=1, max_retries=3)
            ) as service:
                job = service.submit(QUERIES["Q8"])
                with pytest.raises(JobFailed, match="CompileError"):
                    service.wait(job, timeout=60)
                assert service.status(job).attempts == 0


class TestDeadlines:
    def test_deadline_expired_while_queued_fails_at_dequeue(
        self, stub_session, counted
    ):
        session, gate, order = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            blocker = service.submit("block-0")
            assert wait_for(
                lambda: service.status(blocker).state == JobState.RUNNING
            )
            doomed = service.submit("expired", deadline_seconds=0.05)
            time.sleep(0.15)
            gate.set()
            with pytest.raises(JobFailed, match="passed while queued"):
                service.wait(doomed, timeout=10)
        assert "expired" not in order
        assert counted("service.deadline_exceeded") == 1

    def test_deadline_aborts_mid_prove(self, real_run, counted):
        """The cooperative abort path: the span observer notices the
        blown budget partway through a real prove and unwinds it."""
        session = real_run["session"]
        with session.serve(ServiceConfig(workers=1)) as service:
            # A warm k=6 job runs ~0.3 s since the one-IPA opening
            # argument; the budget has to end well inside it.
            job = service.submit(
                SQL_COUNT, rng_seed=SEED_COUNT, deadline_seconds=0.1
            )
            with pytest.raises(JobFailed, match="aborted mid-prove"):
                service.wait(job, timeout=60)
            assert counted("service.deadline_exceeded") == 1
            # The worker survives the abort and serves the next job.
            ok = service.submit(SQL_COUNT, rng_seed=SEED_COUNT)
            service.wait(ok, timeout=60)

    def test_deadline_aborts_mid_prove_on_worker_1(
        self, real_run, monkeypatch
    ):
        """The same abort inside a runner process: its span stream
        carries the deadline check across the fork."""
        session = real_run["session"]
        gate = fork_event()
        hold_in_this_process(monkeypatch, gate)
        with session.serve(ServiceConfig(workers=2)) as service:
            held = hold_worker_0(service)
            # Worker 1's first job is cold (compile + keygen), well
            # past a 0.1 s budget.
            job = service.submit(
                SQL_COUNT, rng_seed=SEED_COUNT, deadline_seconds=0.1
            )
            with pytest.raises(JobFailed, match="aborted mid-prove"):
                service.wait(job, timeout=60)
            assert service.status(job).worker == "prover-worker-1"
            # The runner survives the abort and serves the next job.
            ok = service.submit(SQL_COUNT, rng_seed=SEED_COUNT)
            response = service.wait(ok, timeout=60)
            assert service.status(ok).worker == "prover-worker-1"
            assert response.wire_bytes() == (
                real_run["sync"]["count"].wire_bytes()
            )
            gate.set()
            service.wait(held, timeout=30)


class TestRunnerProcesses:
    """Worker 0 proves in this process, workers 1..N-1 in forked
    runners."""

    def test_workers_n_means_n_processes(self, stub_session):
        session, *_ = stub_session
        with session.serve(ServiceConfig(workers=1)) as service:
            assert runner_processes() == []  # workers=1 forks nothing
            health = service.health()
            assert health["workers"]["prover-worker-0"]["pid"] == os.getpid()
        with session.serve(ServiceConfig(workers=3)) as service:
            pids = {
                name: info["pid"]
                for name, info in service.health()["workers"].items()
            }
            assert pids["prover-worker-0"] == os.getpid()
            assert sorted(p.pid for p in runner_processes()) == sorted(
                [pids["prover-worker-1"], pids["prover-worker-2"]]
            )
        assert runner_processes() == []

    def test_job_on_worker_1_byte_identical_to_sync(
        self, real_run, monkeypatch
    ):
        session = real_run["session"]
        gate = fork_event()
        hold_in_this_process(monkeypatch, gate)
        with session.serve(ServiceConfig(workers=2)) as service:
            held = hold_worker_0(service)
            job = service.submit(SQL_SUM, rng_seed=SEED_SUM)
            response = service.wait(job, timeout=60)
            status = service.status(job)
            gate.set()
            service.wait(held, timeout=30)
        assert status.worker == "prover-worker-1"
        assert response.wire_bytes() == real_run["sync"]["sum"].wire_bytes()
        assert response.result == real_run["sync"]["sum"].result
        # The runner's spans reached the job's live status.
        assert "prove.multiopen" in status.phases

    def test_runner_forked_inside_a_seed_scope_draws_fresh_blinds(
        self, stub_session
    ):
        """A runner forked inside ``deterministic_rng`` must not prove a
        seedless job with the scope's predictable stream."""
        session, gate, _ = stub_session
        with deterministic_rng(7):
            predictable = f"response:blind:{SCALAR_FIELD.rand()}"
        draws = []
        for _ in range(2):
            gate.clear()
            with deterministic_rng(7):
                service = session.serve(ServiceConfig(workers=2))
            with service:
                held = hold_worker_0(service)
                job = service.submit("blind")
                draws.append(service.wait(job, timeout=10))
                assert service.status(job).worker == "prover-worker-1"
                gate.set()
                service.wait(held, timeout=10)
        assert draws[0] != draws[1]
        assert predictable not in draws

    def test_runner_respawned_while_telemetry_locks_are_held(
        self, real_run, monkeypatch
    ):
        """The supervisor forks a replacement runner while other threads
        run.  Locks one of them held at that instant must not deadlock
        the new runner: it has to finish a job."""
        session = real_run["session"]
        gate = fork_event()
        hold_in_this_process(monkeypatch, gate)
        locks = (
            telemetry.get_tracer()._lock, telemetry.metrics_registry()._lock
        )
        fork = ForkedRunner.__init__

        def fork_while_locked(self, *args, **kwargs):
            held, forked = threading.Event(), threading.Event()

            def holder():
                with locks[0], locks[1]:
                    held.set()
                    forked.wait(timeout=30)

            thread = threading.Thread(target=holder)
            thread.start()
            assert held.wait(timeout=10)
            try:
                fork(self, *args, **kwargs)
            finally:
                forked.set()
                thread.join(timeout=10)

        config = ServiceConfig(workers=2)
        with session.serve(config) as service:
            first = service.workers[1].pid
            monkeypatch.setattr(ForkedRunner, "__init__", fork_while_locked)
            os.kill(first, signal.SIGKILL)  # idle: no job to retry
            assert wait_for(
                lambda: service.workers_restarted == 1
                and service.workers[1].alive,
                timeout=30,
            )
            assert service.workers[1].pid != first
            held = hold_worker_0(service)
            job = service.submit(SQL_SUM, rng_seed=SEED_SUM)
            response = service.wait(job, timeout=60)
            assert service.status(job).worker == "prover-worker-1"
            assert response.wire_bytes() == (
                real_run["sync"]["sum"].wire_bytes()
            )
            gate.set()
            service.wait(held, timeout=30)

    def test_dead_runner_makes_its_worker_not_alive(
        self, stub_session, monkeypatch
    ):
        from repro.service import service as service_mod

        session, *_ = stub_session
        # No supervisor tick during the test: the dead worker stays dead.
        monkeypatch.setattr(service_mod, "SUPERVISOR_INTERVAL", 60.0)
        with session.serve(ServiceConfig(workers=2)) as service:
            os.kill(service.workers[1].pid, signal.SIGKILL)
            assert wait_for(
                lambda: not service.health()["workers"]["prover-worker-1"][
                    "alive"
                ]
            )
            health = service.health()
            assert health["healthy"] is False
            assert health["workers"]["prover-worker-0"]["alive"]


class TestDurability:
    def test_waiters_wake_only_after_the_outcome_is_journaled(
        self, stub_session, monkeypatch, tmp_path
    ):
        """``wait()`` returns no proof -- and no failure -- whose journal
        record a crash could still lose."""
        session, _, _ = stub_session
        journal_path = tmp_path / "jobs.journal"
        released = []
        on_job_event = ProvingService._on_job_event

        def recording_hook(self, event, job):
            if event in ("finished", "failed"):
                released.append((event, job.done.is_set()))
            on_job_event(self, event, job)

        monkeypatch.setattr(ProvingService, "_on_job_event", recording_hook)
        with session.serve(
            ServiceConfig(workers=1), journal_path=journal_path
        ) as service:
            ok = service.submit("durable")
            service.wait(ok, timeout=10)
            assert replay(journal_path).jobs[str(ok)].state == "done"
            bad = service.submit("crash-1")
            with pytest.raises(JobFailed):
                service.wait(bad, timeout=10)
            assert replay(journal_path).jobs[str(bad)].state == "failed"
        assert released == [("finished", False), ("failed", False)]

    def test_a_raising_event_hook_fails_no_job(
        self, stub_session, monkeypatch, counted
    ):
        """A broken hook is the service's bug: it is counted, and the
        job it was told about still finishes and wakes its waiter."""
        session, _, _ = stub_session

        def broken_hook(self, event, job):
            if event == "finished":
                raise RuntimeError("broken hook")

        monkeypatch.setattr(ProvingService, "_on_job_event", broken_hook)
        with session.serve(ServiceConfig(workers=1)) as service:
            job = service.submit("q")
            assert service.wait(job, timeout=10) == "response:q"
            assert service.status(job).state == JobState.DONE
        assert counted("service.event_hook_errors") == 1

    @pytest.mark.parametrize(
        "options", [{}, {"journal_fsync": True}], ids=["default", "fsync"]
    )
    def test_journal_fsync_syncs_every_record(
        self, stub_session, monkeypatch, tmp_path, options
    ):
        """``journal_fsync=True`` costs one ``os.fsync`` per appended
        record; the default only flushes."""
        session, _, _ = stub_session
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with session.serve(
            ServiceConfig(workers=1, **options),
            journal_path=tmp_path / "jobs.journal",
        ) as service:
            service.wait(service.submit("durable"), timeout=10)
        assert service.journal.appended == 3  # submitted, running, done
        expected = service.journal.appended if options else 0
        assert len(synced) == expected


class TestQueueRaces:
    """Direct JobQueue coverage: exact shed boundaries and the
    close/pop races the service's shutdown path depends on."""

    def _job(self, sql="q", priority=Priority.NORMAL):
        from repro.service.jobs import Job

        return Job(sql, priority=priority)

    def test_exact_shed_boundary(self):
        from repro.service.queue import JobQueue

        q = JobQueue(max_depth=4, high_priority_reserve=2)
        assert q.depth_limit(Priority.NORMAL) == 2
        assert q.depth_limit(Priority.HIGH) == 4
        q.push(self._job())
        q.push(self._job())  # depth 2 == NORMAL bound: next one sheds
        with pytest.raises(ServiceOverloaded):
            q.push(self._job())
        with pytest.raises(ServiceOverloaded):
            q.push(self._job(priority=Priority.LOW))
        q.push(self._job(priority=Priority.HIGH))
        q.push(self._job(priority=Priority.HIGH))  # depth 4 == cap
        with pytest.raises(ServiceOverloaded):
            q.push(self._job(priority=Priority.HIGH))
        assert q.shed_count == 3

    def test_force_push_bypasses_depth_but_not_close(self):
        from repro.service.queue import JobQueue

        q = JobQueue(max_depth=1)
        q.push(self._job())
        with pytest.raises(ServiceOverloaded):
            q.push(self._job())
        q.push(self._job(), force=True)  # recovery/retry re-admission
        assert len(q) == 2
        q.close()
        with pytest.raises(ServiceClosed):
            q.push(self._job(), force=True)

    def test_remove_withdraws_exactly_once(self):
        from repro.service.queue import JobQueue

        q = JobQueue(max_depth=8)
        jobs = [self._job(f"q{i}") for i in range(4)]
        for job in jobs:
            q.push(job)
        assert q.remove(jobs[1])
        assert not q.remove(jobs[1])  # already gone
        popped = [q.pop(timeout=0.1) for _ in range(3)]
        assert jobs[1] not in popped
        assert len(q) == 0

    def test_blocked_pop_wakes_on_close(self):
        from repro.service.queue import JobQueue

        q = JobQueue(max_depth=4)
        result = {}

        def popper():
            result["job"] = q.pop(timeout=10)

        t = threading.Thread(target=popper)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=2)
        assert not t.is_alive(), "pop() stayed blocked across close()"
        assert result["job"] is None

    def test_close_pop_race_never_loses_or_duplicates(self):
        """Hammer pop() from several threads while close() drains: every
        job must surface exactly once -- either popped or drained."""
        from repro.service.queue import JobQueue

        for trial in range(20):
            q = JobQueue(max_depth=64)
            jobs = [self._job(f"q{i}") for i in range(8)]
            for job in jobs:
                q.push(job)
            popped, lock = [], threading.Lock()

            def drainer():
                while True:
                    job = q.pop(timeout=0.05)
                    if job is None:
                        return
                    with lock:
                        popped.append(job)

            threads = [threading.Thread(target=drainer) for _ in range(4)]
            for t in threads:
                t.start()
            drained = q.close()
            for t in threads:
                t.join(timeout=5)
            seen = popped + drained
            assert len(seen) == 8, f"trial {trial}: {len(seen)} of 8 jobs"
            assert len({id(job) for job in seen}) == 8


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"max_queue_depth": 0},
            {"high_priority_reserve": -1},
            {"high_priority_reserve": 64, "max_queue_depth": 64},
            {"max_retries": -1},
            {"default_tenant_quota": 0},
            {"tenant_quotas": 5},
            {"tenant_quotas": {"": 1}},
            {"tenant_quotas": {"acme": 0}},
            {"tenant_quotas": {"acme": True}},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_replace_revalidates(self):
        """A changed copy is :func:`dataclasses.replace`, which runs the
        same validation as the constructor."""
        config = ServiceConfig(workers=2)
        assert dataclasses.replace(config, workers=4).workers == 4
        assert config.workers == 2
        with pytest.raises(ConfigError):
            dataclasses.replace(config, workers=0)

    @pytest.mark.parametrize(
        "tenant, expected",
        [(None, None), ("acme", 2), ("other", 1)],
        ids=["anonymous", "listed", "default"],
    )
    def test_quota_for(self, tenant, expected):
        config = ServiceConfig(
            tenant_quotas={"acme": 2}, default_tenant_quota=1
        )
        assert config.quota_for(tenant) == expected

    def test_quota_for_without_a_default_is_unbounded(self):
        config = ServiceConfig(tenant_quotas={"acme": 2})
        assert config.quota_for("other") is None
        assert ServiceConfig().quota_for("acme") is None


class TestDeterministicRng:
    def test_same_seed_same_draws(self, field):
        with deterministic_rng(7):
            first = [field.rand() for _ in range(4)]
        with deterministic_rng(7):
            second = [field.rand() for _ in range(4)]
        assert first == second

    def test_thread_local_isolation(self, field):
        """A pinned RNG on one thread must not leak into another."""
        draws = {}

        def other_thread():
            with deterministic_rng(7):
                draws["other"] = [field.rand() for _ in range(4)]

        with deterministic_rng(7):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
            draws["main"] = [field.rand() for _ in range(4)]
        assert draws["main"] == draws["other"]

    def test_no_seed_is_nondeterministic(self, field):
        assert field.rand() != field.rand()  # astronomically unlikely
