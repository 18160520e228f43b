"""The async proving service facade.

:class:`ProvingService` turns a committed :class:`~repro.api.Session`
into a job-oriented server: clients ``submit()`` SQL and get an opaque
:class:`~repro.service.jobs.JobId` back immediately, poll ``status()``
for queue position and live prover phase, and collect the
:class:`~repro.system.prover_node.QueryResponse` with ``result()`` or
the blocking ``wait()``.  Verification stays on the session/verifier
side; ``batch_verify()`` is re-exported here for symmetry so a serving
deployment can amortize its check MSMs across a drained batch.

Fault tolerance (DESIGN.md section 5i) is built from four coupled
pieces:

- a **durable job journal** (:mod:`repro.service.journal`): with
  ``journal_path`` set, every lifecycle transition is appended to a
  checksummed write-ahead log, and :meth:`ProvingService.open` on an
  existing journal replays it -- interrupted (and completed-in-memory)
  jobs are re-enqueued and re-proved, byte-identical to the journaled
  result digest under a pinned ``rng_seed``;
- a **supervisor** that respawns dead workers (recovering their
  orphaned jobs) and releases retry-backoff jobs;
- **retry with exponential backoff + jitter** for jobs that die with a
  worker or fail non-deterministically (never for typed deterministic
  failures), bounded by ``max_retries``;
- **per-tenant admission quotas** on top of the priority lanes.

Each worker is a thread here plus a *runner* that proves its jobs:
worker 0's runner is this process, every other worker's a process
forked at spawn (:mod:`repro.service.runner`), so ``workers=N`` proves
in N processes.

The service is a context manager; ``close()`` stops admissions,
cancels still-queued jobs (their waiters are released with a
``CANCELLED`` terminal state, never left hanging), and joins the
worker threads and their runner processes.
"""

from __future__ import annotations

import heapq
import logging
import random
import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro import telemetry
from repro.config import ServiceConfig
from repro.ecc import fixed_base
from repro.errors import (
    JobFailed,
    JobNotFound,
    JobTimeout,
    ServiceClosed,
    ServiceOverloaded,
    StateError,
)
from repro.service import journal as journal_mod
from repro.service.journal import JobJournal
from repro.service.jobs import (
    Job,
    JobId,
    JobState,
    JobStatus,
    Priority,
    advance_seq,
)
from repro.service.queue import JobQueue
from repro.service.runner import ForkedRunner, InProcessRunner
from repro.service.scheduler import ProverWorker, Supervisor
from repro.telemetry import promtext
from repro.telemetry.obs import ErrorRing, EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Session
    from repro.proving.aggregate import AggProof
    from repro.system.prover_node import QueryResponse
    from repro.system.verifier_node import AggReport, BatchReport

logger = logging.getLogger("repro.service")


class ProvingService:
    """A pool of long-lived prover workers behind a priority queue.

    Construct directly, via :meth:`repro.api.Session.serve`, or --
    when a durable journal is wanted -- via :meth:`open`.  The session
    must outlive the service; the service commits the database on
    construction if the session has not already.

    ``chaos`` is the deterministic fault-injection port
    (:mod:`repro.service.chaos`); leave it ``None`` outside tests.
    """

    def __init__(
        self,
        session: "Session",
        config: ServiceConfig | None = None,
        *,
        journal_path=None,
        chaos=None,
    ):
        self.config = config or ServiceConfig()
        self.session = session
        self._chaos = chaos
        if session.prover.commitment is None:
            session.commit()
        self._warm_start()
        self.queue = JobQueue(
            self.config.max_queue_depth,
            self.config.high_priority_reserve,
            chaos=chaos,
        )
        self._jobs: dict[JobId, Job] = {}
        #: Jobs already folded into a previous :meth:`rollup` epoch.
        self._rolled: set[JobId] = set()
        self._lock = threading.Lock()
        self._closed = False
        self.started_at = time.time()
        self.events_log = EventLog(
            path=self.config.event_log_path,
            capacity=self.config.event_log_capacity,
        )
        self.errors = ErrorRing(capacity=self.config.error_ring_size)
        #: Retry backlog: ``(due_monotonic, seq, job)`` released by the
        #: supervisor once each backoff elapses.
        self._retries: list[tuple[float, int, Job]] = []
        self._retry_lock = threading.Lock()
        self.workers_restarted = 0
        self.recovered_jobs = 0
        self.journal: JobJournal | None = None
        self.replay: journal_mod.JournalReplay | None = None
        path = journal_path if journal_path is not None else self.config.journal_path
        if path is not None:
            self._open_journal(path)
        self.workers = [
            self._spawn_worker(i) for i in range(self.config.workers)
        ]
        for worker in self.workers:
            worker.start()
        self.supervisor = Supervisor(
            self._supervise, self.config.supervisor_interval
        )
        self.supervisor.start()

    @classmethod
    def open(
        cls,
        session: "Session",
        config: ServiceConfig | None = None,
        *,
        journal_path=None,
        chaos=None,
    ) -> "ProvingService":
        """Open a (possibly crash-recovering) proving service.

        With ``journal_path`` (or ``config.journal_path``) naming an
        existing journal, the service replays it before taking new
        work: jobs the previous incarnation accepted but did not
        terminally fail or cancel are re-enqueued ahead of new
        submissions and re-proved -- byte-identical to any journaled
        result digest when their ``rng_seed`` was pinned.  A torn
        final record (the crash signature) is tolerated; earlier
        corruption raises :class:`~repro.errors.JournalCorrupt`.
        """
        return cls(session, config, journal_path=journal_path, chaos=chaos)

    def _spawn_worker(self, index: int) -> ProverWorker:
        """Worker ``index`` with a prover clone (sharing the session
        prover's key memo) and its runner: this process for worker 0, a
        freshly forked process -- inheriting the committed database,
        parameters, the keys memoized so far and the fixed-base tables
        ``_warm_start`` built -- for the rest."""
        name = f"prover-worker-{index}"
        prover = self.session.prover.worker_clone()
        return ProverWorker(
            name=name,
            queue=self.queue,
            runner=(
                InProcessRunner(prover) if index == 0
                else ForkedRunner(prover, name=f"{name}-runner")
            ),
            poll_interval=self.config.poll_interval,
            on_event=self._on_job_event,
            retry=self._maybe_retry,
            chaos=self._chaos,
        )

    def _warm_start(self) -> None:
        """Pre-build shared process-wide artifacts before taking jobs.

        Both fixed-base MSM table sets are keyed by the session's public
        parameters and shared by every worker, so building them once
        here (registry -> disk cache -> fresh build) keeps the first
        job's latency in line with steady state -- also for a service
        that replays a journal before anyone committed in this process.
        Best-effort: a cache directory that cannot be written (or a
        host too small to hold the tables) leaves the build to the
        first commitment.
        """
        try:
            for kind in (fixed_base.MONOMIAL, fixed_base.LAGRANGE):
                fixed_base.tables_for_params(self.session.params, kind=kind)
        except (OSError, MemoryError):
            telemetry.incr("service.warm_start_errors")
            logger.warning("fixed-base table warm start failed", exc_info=True)

    # -- journal + crash recovery ----------------------------------------

    def _open_journal(self, path) -> None:
        """Replay any existing journal at ``path``, restore its jobs,
        and start appending to it."""
        replay_started = time.time()
        replay = journal_mod.replay(path)
        self.replay = replay
        self.journal = JobJournal(path, fsync=self.config.journal_fsync)
        advance_seq(replay.max_seq)
        for jj in replay.terminal():
            job = self._restore_job(jj)
            job.finish(
                JobState.CANCELLED if jj.state == "cancelled"
                else JobState.FAILED,
                error=jj.error,
            )
            with self._lock:
                self._jobs[job.job_id] = job
        for jj in replay.pending():
            job = self._restore_job(jj)
            if jj.state == "done":
                job.expected_digest = jj.digest
            with self._lock:
                self._jobs[job.job_id] = job
            self.queue.push(job, force=True)
            self.recovered_jobs += 1
            telemetry.incr("service.recoveries")
            self.events_log.emit(
                "recovered",
                job_id=job.job_id,
                prior_state=jj.state,
                attempts=jj.attempts,
                expected_digest=jj.digest,
            )
        telemetry.observe(
            "service.journal_replay_seconds", time.time() - replay_started
        )
        if replay.records or replay.torn_tail_bytes:
            self.events_log.emit(
                "journal_replayed",
                records=replay.records,
                torn_tail_bytes=replay.torn_tail_bytes,
                recovered=self.recovered_jobs,
                terminal=len(replay.terminal()),
            )

    def _restore_job(self, jj: journal_mod.JournaledJob) -> Job:
        """A live job rebuilt from its journaled final state.

        Deadlines restart from recovery time: a crash must not turn
        every queued deadline job into an instant failure.
        """
        job = Job(
            jj.sql,
            priority=Priority(jj.priority),
            rng_seed=jj.rng_seed,
            tenant=jj.tenant,
            deadline_seconds=jj.deadline_seconds,
            max_retries=jj.max_retries,
            job_id=JobId(jj.job_id),
            seq=jj.seq,
        )
        job.attempts = jj.attempts
        job.recovered = True
        return job

    def _journal_append(self, rec: str, job: Job, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(
                rec, str(job.job_id), ts=round(time.time(), 6), **fields
            )

    # -- client surface --------------------------------------------------

    def submit(
        self,
        sql: str,
        priority: Priority = Priority.NORMAL,
        rng_seed: int | None = None,
        tenant: str | None = None,
        deadline_seconds: float | None = None,
        max_retries: int | None = None,
    ) -> JobId:
        """Enqueue ``sql`` for proving and return its job handle.

        Raises :class:`~repro.errors.ServiceOverloaded` when the
        priority lane's admission bound is reached -- or when
        ``tenant`` is at its configured quota of queued + running jobs
        (the exception then carries ``tenant`` and ``quota``) -- and
        :class:`~repro.errors.ServiceClosed` after :meth:`close`.
        ``rng_seed`` pins the proof's blinding randomness (see
        :func:`repro.algebra.field.deterministic_rng`) so a submitted
        job reproduces the synchronous path byte for byte; leave it
        ``None`` for cryptographically fresh blinds.  ``rng_seed`` is
        also what makes crash recovery *exact*: a journal-replayed job
        must reproduce the recorded proof digest.

        ``deadline_seconds`` bounds the job's total wall clock from
        submission (cooperatively enforced; requires telemetry for
        mid-prove aborts), and ``max_retries`` overrides the service
        default for this job.
        """
        if self._closed:
            raise ServiceClosed("proving service is shut down")
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline_seconds
        job = Job(
            sql,
            priority=priority,
            rng_seed=rng_seed,
            tenant=tenant,
            deadline_seconds=deadline_seconds,
            max_retries=(
                max_retries if max_retries is not None
                else self.config.max_retries
            ),
        )
        quota = self.config.quota_for(tenant)
        with self._lock:
            if quota is not None:
                active = sum(
                    1
                    for other in self._jobs.values()
                    if other.tenant == tenant and not other.state.finished
                )
                if active >= quota:
                    telemetry.incr("service.tenant_rejections")
                    self.events_log.emit(
                        "tenant_rejected",
                        job_id=job.job_id,
                        tenant=tenant,
                        quota=quota,
                        active=active,
                    )
                    raise ServiceOverloaded(
                        f"tenant {tenant!r} has {active} active jobs at its "
                        f"quota of {quota}; back off and retry later",
                        queue_depth=len(self.queue),
                        tenant=tenant,
                        quota=quota,
                    )
            self._jobs[job.job_id] = job
        try:
            self.queue.push(job)
        except Exception as exc:
            with self._lock:
                self._jobs.pop(job.job_id, None)
            self.events_log.emit(
                "shed",
                job_id=job.job_id,
                priority=job.priority.name,
                queue_depth=len(self.queue),
                reason=f"{type(exc).__name__}: {exc}",
            )
            raise
        self._journal_append(
            "submitted",
            job,
            sql=job.sql,
            priority=int(job.priority),
            rng_seed=job.rng_seed,
            tenant=job.tenant,
            deadline_seconds=job.deadline_seconds,
            max_retries=job.max_retries,
            seq=job.seq,
        )
        self.events_log.emit(
            "submitted",
            job_id=job.job_id,
            trace_id=job.trace_id,
            priority=job.priority.name,
            tenant=job.tenant,
            queue_depth=len(self.queue),
        )
        return job.job_id

    def cancel(self, job_id: JobId) -> None:
        """Cancel a still-queued job.

        The job is withdrawn from the queue, finished as ``CANCELLED``
        (releasing any :meth:`wait` callers, whose :meth:`result` then
        raises :class:`~repro.errors.JobFailed`), and the cancellation
        is journaled.  Raises :class:`~repro.errors.StateError` when
        the job is already running or finished -- a running prove
        cannot be revoked -- and :class:`~repro.errors.JobNotFound`
        for an unknown id.
        """
        job = self._get(job_id)
        if not job.mark_cancelled_if_queued():
            raise StateError(
                f"{job_id} is {job.state.value}; only queued jobs can be "
                "cancelled"
            )
        self.queue.remove(job)
        with self._retry_lock:
            self._retries = [
                entry for entry in self._retries if entry[2] is not job
            ]
            heapq.heapify(self._retries)
        self._cancel(job, "cancelled by client")

    def _cancel(self, job: Job, error: str) -> None:
        """Finish ``job`` as ``CANCELLED``, journaled before its waiters
        wake (a no-op for a job already terminal)."""
        if not job.finish(JobState.CANCELLED, error=error, release=False):
            return
        try:
            telemetry.incr("service.jobs_cancelled")
            self._journal_append("cancelled", job, error=error)
            self.events_log.emit(
                "cancelled", job_id=job.job_id, trace_id=job.trace_id
            )
        finally:
            job.release()

    def _on_job_event(self, event: str, job: Job) -> None:
        """Worker-thread hook: one call per job lifecycle transition
        (``started`` / ``finished`` / ``failed``)."""
        if event == "started":
            self._journal_append(
                "running", job, worker=job.worker, attempt=job.attempts
            )
            self.events_log.emit(
                "started",
                job_id=job.job_id,
                trace_id=job.trace_id,
                worker=job.worker,
                attempt=job.attempts,
                queue_wait_seconds=round(
                    (job.started_at or 0.0) - job.submitted_at, 6
                ),
            )
            return
        run_seconds = 0.0
        if job.finished_at is not None and job.started_at is not None:
            run_seconds = job.finished_at - job.started_at
        if event == "finished":
            telemetry.observe("service.prove_seconds", run_seconds)
            self._journal_append("done", job, digest=job.result_digest)
            self.events_log.emit(
                "finished",
                job_id=job.job_id,
                trace_id=job.trace_id,
                worker=job.worker,
                run_seconds=round(run_seconds, 6),
                digest=job.result_digest,
            )
        elif event == "failed":
            self.errors.record(
                job.error or "unknown error",
                job_id=job.job_id,
                worker=job.worker or "",
            )
            self._journal_append("failed", job, error=job.error)
            self.events_log.emit(
                "failed",
                job_id=job.job_id,
                trace_id=job.trace_id,
                worker=job.worker,
                error=job.error,
                run_seconds=round(run_seconds, 6),
            )

    # -- retry + supervision ---------------------------------------------

    def _maybe_retry(self, job: Job, error: str) -> bool:
        """The retry policy: re-enqueue ``job`` after exponential
        backoff with deterministic jitter, bounded by its
        ``max_retries``.  Returns False (caller fails the job) when the
        budget is spent or the service is closing."""
        if self._closed or job.attempts >= job.max_retries:
            return False
        if not job.requeue():
            return False
        job.attempts += 1
        base = self.config.retry_backoff_seconds * (2 ** (job.attempts - 1))
        # Deterministic jitter (seeded by the job's identity and
        # attempt) keeps chaos runs reproducible while still spreading
        # synchronized retry herds in production.
        jitter = 1.0 + 0.25 * random.Random(
            (job.seq << 8) | job.attempts
        ).random()
        backoff = min(base * jitter, self.config.retry_backoff_max)
        telemetry.incr("service.jobs_retried")
        telemetry.observe("service.retry_backoff_seconds", backoff)
        self._journal_append(
            "retry",
            job,
            attempt=job.attempts,
            error=error,
            backoff_seconds=round(backoff, 6),
        )
        self.events_log.emit(
            "retry",
            job_id=job.job_id,
            attempt=job.attempts,
            max_retries=job.max_retries,
            backoff_seconds=round(backoff, 6),
            error=error,
        )
        with self._retry_lock:
            heapq.heappush(
                self._retries, (time.monotonic() + backoff, job.seq, job)
            )
        return True

    def _supervise(self) -> None:
        """One supervisor tick: respawn dead workers (recovering their
        orphaned jobs) and release retries whose backoff elapsed."""
        if self._closed:
            return
        for i, worker in enumerate(self.workers):
            if worker.is_alive() or worker.stop_requested or not worker.ident:
                continue
            orphan = worker._current
            if orphan is not None and not orphan.done.is_set():
                error = f"worker {worker.name} died mid-job"
                if not self._maybe_retry(orphan, error):
                    worker.finish_job(orphan, JobState.FAILED, error)
            # A dead runner is reaped; a live one (only the thread died)
            # exits at EOF.
            worker.stop_runner(self.config.shutdown_timeout)
            replacement = self._spawn_worker(i)
            self.workers[i] = replacement
            replacement.start()
            self.workers_restarted += 1
            telemetry.incr("service.workers_restarted")
            self.events_log.emit(
                "worker_restarted",
                worker=worker.name,
                orphaned_job=(
                    str(orphan.job_id) if orphan is not None else None
                ),
            )
        now = time.monotonic()
        due: list[Job] = []
        with self._retry_lock:
            while self._retries and self._retries[0][0] <= now:
                due.append(heapq.heappop(self._retries)[2])
        for job in due:
            try:
                self.queue.push(job, force=True)
            except ServiceClosed:
                self._cancel(job, "cancelled at service shutdown")

    def status(self, job_id: JobId) -> JobStatus:
        """A point-in-time snapshot of the job's state, queue position,
        and live prover phase."""
        job = self._get(job_id)
        position = (
            self.queue.position(job) if job.state == JobState.QUEUED else None
        )
        return job.snapshot(queue_position=position)

    def result(self, job_id: JobId) -> "QueryResponse":
        """The finished job's response.

        Raises :class:`~repro.errors.JobFailed` for failed or
        cancelled jobs and :class:`~repro.errors.StateError` when the
        job has not reached a terminal state yet (use :meth:`wait` to
        block) -- or has, but its journal record is not written yet.
        """
        job = self._get(job_id)
        if not job.done.is_set():
            raise StateError(
                f"{job_id} is {job.state.value}; wait() for it to finish"
            )
        if job.state == JobState.DONE:
            assert job.response is not None
            return job.response
        if job.state == JobState.FAILED:
            raise JobFailed(job_id, job.error or "unknown error")
        raise JobFailed(job_id, job.error or "cancelled")

    def wait(self, job_id: JobId, timeout: float | None = None) -> "QueryResponse":
        """Block until the job finishes, then return :meth:`result`.

        Raises :class:`~repro.errors.JobTimeout` (a ``TimeoutError``)
        if ``timeout`` seconds elapse first (the job keeps running;
        poll or ``wait`` again).
        """
        job = self._get(job_id)
        if not job.done.wait(timeout=timeout):
            raise JobTimeout(
                job_id, f"{job_id} still {job.state.value} after {timeout}s"
            )
        return self.result(job_id)

    def batch_verify(self, responses: Sequence["QueryResponse"]) -> "BatchReport":
        """Verify many responses with one folded accumulator check
        (delegates to the session's verifier)."""
        return self.session.verifier().batch_verify(responses)

    # -- aggregation -----------------------------------------------------

    def submit_aggregate(
        self,
        sqls: Sequence[str],
        priority: Priority = Priority.NORMAL,
        rng_seed: int | None = None,
    ) -> list[JobId]:
        """Fan a batch of queries out to the prover farm for later
        :meth:`rollup` into one aggregated claim.

        Each query becomes an independent job (they prove in parallel
        across the workers); when ``rng_seed`` is given, job ``i`` pins
        its blinds to ``rng_seed + i`` so the whole batch reproduces
        byte for byte."""
        if not sqls:
            raise ValueError("cannot submit an empty aggregate batch")
        return [
            self.submit(
                sql,
                priority=priority,
                rng_seed=None if rng_seed is None else rng_seed + i,
            )
            for i, sql in enumerate(sqls)
        ]

    def rollup(
        self,
        job_ids: Sequence[JobId] | None = None,
        timeout: float | None = None,
    ) -> "AggProof":
        """Fold finished jobs into one transportable aggregated claim.

        With ``job_ids``, waits for exactly those jobs (``timeout`` per
        :meth:`wait`) and folds them in the given order.  Without, this
        is the *epoch* hook: every completed job not folded by a
        previous rollup is swept in submission order, so calling
        ``rollup()`` at an interval partitions the service's traffic
        into disjoint aggregated epochs.  Raises
        :class:`~repro.errors.StateError` when there is nothing to roll
        up, and :class:`~repro.errors.JobFailed` if a requested job
        failed."""
        from repro.proving.aggregate import aggregate

        if job_ids is None:
            with self._lock:
                candidates = sorted(
                    (
                        job
                        for job in self._jobs.values()
                        if job.state == JobState.DONE
                        and job.job_id not in self._rolled
                    ),
                    key=lambda job: job.seq,
                )
            job_ids = [job.job_id for job in candidates]
            if not job_ids:
                raise StateError("no completed jobs to roll up")
        elif not job_ids:
            raise StateError("cannot roll up an empty job list")
        responses = [self.wait(job_id, timeout=timeout) for job_id in job_ids]
        agg = aggregate(responses, self.session.params)
        with self._lock:
            self._rolled.update(job_ids)
        telemetry.incr("service.rollups")
        return agg

    def verify_aggregate(self, agg: "AggProof | bytes") -> "AggReport":
        """Check an aggregated claim with one accumulator finalize
        (delegates to the session's verifier)."""
        return self.session.verifier().verify_aggregate(agg)

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service counters: queue depth, shed count, per-state job
        totals, per-tenant activity, and per-worker completion
        counts."""
        with self._lock:
            states: dict[str, int] = {}
            tenants: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
                if job.tenant is not None and not job.state.finished:
                    tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
        with self._retry_lock:
            retries_pending = len(self._retries)
        return {
            "queue_depth": len(self.queue),
            "shed_count": self.queue.shed_count,
            "jobs": states,
            "tenants": tenants,
            "retries_pending": retries_pending,
            "workers_restarted": self.workers_restarted,
            "recovered_jobs": self.recovered_jobs,
            "workers": {
                worker.name: {
                    "completed": worker.completed,
                    "failed": worker.failed,
                }
                for worker in self.workers
            },
        }

    def health(self) -> dict[str, Any]:
        """An operational snapshot for liveness probes and dashboards.

        Built from the service's own records (workers and their
        runners, queue, job table, journal, error ring), so it is
        meaningful even with telemetry disabled.  ``healthy`` is False
        once any worker's thread or runner process is dead, or a
        configured journal has self-disabled after a write error (the
        service keeps proving, but no longer durably).  Shape::

            {
              "healthy": bool,
              "closed": bool,
              "uptime_seconds": float,
              "workers": {name: {"alive", "pid", "current_job",
                                 "completed", "failed"}},
              "workers_restarted": int,
              "supervisor_alive": bool,
              "queue": {"depth", "depths": {lane: n}, "max_depth",
                        "shed_count"},
              "jobs": {state: count},
              "retries_pending": int,
              "journal": {"path", "active", "appended",
                          "records_replayed", "torn_tail_bytes",
                          "recovered_jobs"} | None,
              "keygen": {"requests", "warm_hits", "warm_hit_ratio"},
              "last_errors": [...recent failures, oldest first...],
            }
        """
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
        workers = {}
        for worker in self.workers:
            current = worker._current
            workers[worker.name] = {
                "alive": worker.alive,
                "pid": worker.pid,
                "current_job": str(current.job_id) if current else None,
                "completed": worker.completed,
                "failed": worker.failed,
            }
        with self._retry_lock:
            retries_pending = len(self._retries)
        journal_info = None
        if self.journal is not None:
            replay = self.replay
            journal_info = {
                "path": str(self.journal.path),
                "active": self.journal.active,
                "appended": self.journal.appended,
                "records_replayed": replay.records if replay else 0,
                "torn_tail_bytes": replay.torn_tail_bytes if replay else 0,
                "recovered_jobs": self.recovered_jobs,
            }
        counters = telemetry.metrics_registry().counters_snapshot()
        requests = int(counters.get("keygen.requests", 0))
        warm_hits = int(counters.get("keygen.warm_hits", 0))
        return {
            "healthy": (not self._closed)
            and all(info["alive"] for info in workers.values())
            and (self.journal is None or self.journal.active),
            "closed": self._closed,
            "uptime_seconds": time.time() - self.started_at,
            "workers": workers,
            "workers_restarted": self.workers_restarted,
            "supervisor_alive": self.supervisor.is_alive(),
            "queue": {
                "depth": len(self.queue),
                "depths": self.queue.depths(),
                "max_depth": self.queue.max_depth,
                "shed_count": self.queue.shed_count,
            },
            "jobs": states,
            "retries_pending": retries_pending,
            "journal": journal_info,
            "keygen": {
                "requests": requests,
                "warm_hits": warm_hits,
                "warm_hit_ratio": (
                    warm_hits / requests if requests else 0.0
                ),
            },
            "last_errors": self.errors.snapshot(),
        }

    def metrics_text(self) -> str:
        """The ambient metrics registry in Prometheus text exposition
        format, with the service's live gauges refreshed first (see
        :mod:`repro.telemetry.promtext`)."""
        registry = telemetry.metrics_registry()
        registry.gauge("service.queue_depth", len(self.queue))
        for lane, depth in self.queue.depths().items():
            registry.gauge(f"service.queue_depth.{lane.lower()}", depth)
        registry.gauge(
            "service.workers_alive",
            sum(1 for worker in self.workers if worker.alive),
        )
        registry.gauge("service.uptime_seconds", time.time() - self.started_at)
        return promtext.render_registry(registry)

    def events(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent job lifecycle events, oldest first (the
        in-memory ring; see ``config.event_log_path`` for the on-disk
        stream)."""
        return self.events_log.tail(n)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admissions, cancel queued jobs, and join the workers
        and their runner processes.

        Running jobs are allowed to finish (bounded by
        ``config.shutdown_timeout`` per worker join; a runner still
        proving after that is killed); queued and retry-pending jobs
        are finished as ``CANCELLED`` so every waiter is released.
        """
        if self._closed:
            return
        self._closed = True
        self.supervisor.request_stop()
        with self._retry_lock:
            pending_retries = [job for _, _, job in self._retries]
            self._retries.clear()
        for job in self.queue.close() + pending_retries:
            self._cancel(job, "cancelled at service shutdown")
        # Supervisor first: a tick caught mid-respawn has published a
        # replacement worker it has not started yet, and joining that
        # raises.
        self.supervisor.join(timeout=self.config.shutdown_timeout)
        for worker in self.workers:
            worker.request_stop()
        for worker in self.workers:
            worker.join(timeout=self.config.shutdown_timeout)
            worker.stop_runner(self.config.shutdown_timeout)
        self.events_log.emit("closed", uptime_seconds=round(
            time.time() - self.started_at, 6
        ))
        self.events_log.close()
        if self.journal is not None:
            self.journal.close()

    def abort(self) -> None:
        """Hard-stop the service *without* the graceful drain -- the
        closest an in-process API can come to a crash.

        Queued jobs are left un-cancelled (exactly as a killed process
        would leave them), runner processes are killed mid-job, and
        nothing further is journaled, so a subsequent :meth:`open` on
        the same journal exercises real recovery.  A test/chaos aid;
        production code wants :meth:`close`.
        """
        if self._closed:
            return
        self._closed = True
        self.supervisor.request_stop()
        # A tick caught mid-respawn must not fork a runner after the
        # kills below.
        self.supervisor.join(timeout=self.config.shutdown_timeout)
        for worker in self.workers:
            worker.request_stop()
            worker.stop_runner(timeout=0)  # mid-job or not
        self.queue.close()
        if self.journal is not None:
            self.journal.close()
        self.events_log.close()

    def __enter__(self) -> "ProvingService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _get(self, job_id: JobId) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job
