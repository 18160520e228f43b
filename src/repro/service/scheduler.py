"""The prover farm: long-lived workers draining the job queue, and
the supervisor that keeps the farm at full strength.

Each :class:`ProverWorker` is a daemon thread in the service process
that claims jobs, journals and reports them, and hands each prove to
its *runner* (:mod:`repro.service.runner`): worker 0's runner is the
service's own process, every other worker's is a process forked when
the worker is spawned.  The runner owns a
:meth:`~repro.system.prover_node.ProverNode.worker_clone` of the
session's prover.  The clone shares the heavyweight read-only state
(database, public parameters, published commitment and its secrets, the
on-disk artifact cache, the in-memory proving-key memo) -- by reference
in the service, by ``fork`` in a runner process.  Keys are never changed
once built, so the service's threads share one memo: the farm pays key
generation -- or even just the disk-cache unpickle -- once per circuit
(shape and fixed values) and serves every later job of it from memory.
A forked runner inherits the keys memoized before its fork and adds its
own.  The fixed-base MSM tables live in the process-wide registry
(:mod:`repro.ecc.fixed_base`), built once before the workers spawn, so
every runner starts with a warm copy.

Failure handling is layered:

- A failed job comes back from the runner *classified*: the typed
  :class:`~repro.errors.ReproError` hierarchy (plus ``ValueError`` /
  ``TypeError``-shaped input errors) is deterministic -- the same SQL
  would fail the same way -- so the job goes straight to ``FAILED``.
  Anything else (a transient resource error, a prover bug) is offered
  to the service's retry policy, which may re-enqueue the job with
  exponential backoff.
- :class:`WorkerKilled` (a ``BaseException``, so no job-level handler
  swallows it) takes down the whole worker thread with its job still
  ``RUNNING`` -- the fault-injection model of a worker dying mid-job.
  A runner process that dies (EOF on its pipe, e.g. SIGKILL) is the
  same event.  The :class:`Supervisor` detects the dead thread, hands
  the orphaned job to the retry policy, and respawns the worker with a
  new runner so the farm returns to full capacity.
- Deadlines are enforced cooperatively through the telemetry span
  observer the runner installs for live phase tracking: every span
  begin/end on the job's thread checks the wall-clock budget and aborts
  the prove with a :class:`~repro.errors.DeadlineExceeded` failure when
  it is spent.

Live phase progress comes from the same span stream: the runner sends
every span begin/end of the job, and the worker mirrors it onto the job
record (the same spans that later form the response's phase report).

A terminal transition is made durable before anyone hears of it: the
journal record, the ``service.prove_seconds`` sample and the event come
first, and only then are the job's waiters woken.
"""

from __future__ import annotations

import hashlib
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro import telemetry
from repro.errors import RecoveryMismatch
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue
from repro.service.runner import DEADLINE, TRANSIENT, JobOutcome, JobRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.runner import ForkedRunner, InProcessRunner

#: ``on_event(event, job)`` callback the service installs to observe
#: job lifecycle transitions (``"started"`` / ``"finished"`` /
#: ``"failed"``) from the worker threads.
JobEventHook = Callable[[str, Job], None]

#: ``retry(job, error) -> bool`` policy hook: True when the service
#: re-enqueued the job (the worker must then not finish it).
RetryHook = Callable[[Job, str], bool]


class WorkerKilled(BaseException):
    """Kills a worker thread mid-job (fault injection, or its runner
    process died).

    Deliberately a ``BaseException``: the per-job crash containment
    catches ``Exception``-shaped failures, but a *worker death* must
    leave the job ``RUNNING`` and orphaned for the supervisor to
    recover -- the scenario the chaos suite drives.
    """


def response_digest(response) -> str:
    """BLAKE2b hex digest of a response's proof wire bytes -- the
    byte-identity anchor the journal records and recovery re-checks.
    Falls back to ``repr`` for stubbed responses in tests."""
    wire = getattr(response, "wire_bytes", None)
    data = wire() if callable(wire) else repr(response).encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def mirror_span(job: Job, event: str, name: str, seconds: float) -> None:
    """Apply one span event of the job's runner to its live status: the
    open span path for ``status()`` and the ``prove*`` phase
    bookkeeping."""
    if event == "begin":
        job.open_spans.append(name)
    elif job.open_spans and job.open_spans[-1] == name:
        job.open_spans.pop()
    if not name.startswith("prove"):
        return
    if event == "begin":
        job.phase = name
    else:
        job.phases[name] = job.phases.get(name, 0.0) + seconds
        if job.phase == name:
            job.phase = None


class ProverWorker(threading.Thread):
    """One long-lived prover worker: a thread in the service process
    and the runner that proves its jobs."""

    def __init__(self, name: str, queue: JobQueue,
                 runner: "InProcessRunner | ForkedRunner",
                 poll_interval: float = 0.05,
                 on_event: Optional[JobEventHook] = None,
                 retry: Optional[RetryHook] = None,
                 chaos=None):
        super().__init__(name=name, daemon=True)
        self._queue = queue
        self._runner = runner
        self._poll = poll_interval
        self._on_event = on_event
        self._retry = retry
        self._chaos = chaos
        self._stop_event = threading.Event()
        self._current: Job | None = None
        #: Per-worker completion counters surfaced by ``stats()``.
        self.completed = 0
        self.failed = 0

    # -- lifecycle -------------------------------------------------------

    def request_stop(self) -> None:
        self._stop_event.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop_event.is_set()

    @property
    def pid(self) -> int | None:
        """The process the worker's jobs run in."""
        return self._runner.pid

    @property
    def alive(self) -> bool:
        """Whether the thread and its runner are both alive."""
        return self.is_alive() and self._runner.is_alive()

    def stop_runner(self, timeout: float) -> None:
        """Stop the runner once the thread is done with it; a thread
        still mid-job gets its runner killed (and then reads EOF)."""
        if self.is_alive():
            self._runner.kill()
        else:
            self._runner.close(timeout)

    def run(self) -> None:  # pragma: no branch - loop structure
        try:
            while not self._stop_event.is_set():
                if not self._runner.is_alive():
                    raise WorkerKilled(f"{self.name}'s runner exited")
                job = self._queue.pop(timeout=self._poll)
                if job is None:
                    if self._queue.closed:
                        break
                    continue
                self._execute(job)
        except WorkerKilled:
            # The thread dies with its job still RUNNING in
            # self._current; the supervisor recovers both.
            telemetry.incr("service.workers_killed")

    # -- job execution ---------------------------------------------------

    def _execute(self, job: Job) -> None:
        if not job.claim(self.name):
            # Duplicated pop or a cancel that won the race: the job is
            # owned elsewhere (or terminal) and must not run here.
            telemetry.incr("service.duplicate_pops_skipped")
            return
        self._current = job
        telemetry.observe(
            "service.queue_wait_seconds", job.started_at - job.submitted_at
        )
        if job.deadline_passed(job.started_at):
            # Expired while queued: fail at dequeue, never prove.
            telemetry.incr("service.deadline_exceeded")
            self.finish_job(
                job,
                JobState.FAILED,
                f"DeadlineExceeded: {job.deadline_seconds}s deadline "
                "passed while queued",
            )
            self._current = None
            return
        self._emit("started", job)
        request = JobRequest(
            job.sql, job.rng_seed, str(job.job_id), job.trace_id,
            job.deadline_at,
        )
        try:
            if self._chaos is not None:
                self._chaos.on_prove(job, self.name)
            outcome = self._runner.run(request, partial(mirror_span, job))
        except (EOFError, OSError) as exc:
            raise WorkerKilled(f"{self.name}'s runner died mid-job") from exc
        finally:
            job.open_spans.clear()
        self._conclude(job, outcome)
        self._current = None

    def _conclude(self, job: Job, outcome: JobOutcome) -> None:
        """Turn the runner's outcome into the job's next state."""
        if outcome.failure is None:
            digest = response_digest(outcome.response)
            mismatch = (
                job.expected_digest is not None
                and job.rng_seed is not None
                and digest != job.expected_digest
            )
            if not mismatch:
                job.response = outcome.response
                job.result_digest = digest
                self.finish_job(job, JobState.DONE)
                return
            error = (
                f"{RecoveryMismatch.__name__}: replayed proof digest "
                f"{digest} != journaled {job.expected_digest} for "
                f"{job.job_id}"
            )
        elif outcome.failure == DEADLINE:
            telemetry.incr("service.deadline_exceeded")
            error = (
                f"DeadlineExceeded: aborted mid-prove after its "
                f"{job.deadline_seconds}s deadline"
            )
        else:
            error = outcome.error or "unknown error"
            if (
                outcome.failure == TRANSIENT
                and self._retry is not None
                and self._retry(job, error)
            ):
                return  # re-enqueued; the job is not terminal
        self.finish_job(job, JobState.FAILED, error)

    def finish_job(
        self, job: Job, state: JobState, error: str | None = None
    ) -> None:
        """The terminal transition, durable before it is visible: the
        ``finished`` / ``failed`` event (journal record, histogram,
        event log) goes out first, then the job's waiters wake.  The
        supervisor uses it for a dead worker's orphan too."""
        if not job.finish(state, error=error, release=False):
            return
        try:
            if state is JobState.DONE:
                self.completed += 1
                telemetry.incr("service.jobs_done")
                self._emit("finished", job)
            else:
                self.failed += 1
                telemetry.incr("service.jobs_failed")
                self._emit("failed", job)
        finally:
            job.release()

    def _emit(self, event: str, job: Job) -> None:
        """Deliver a lifecycle event to the service hook; a broken hook
        is the service's bug, never the job's failure."""
        if self._on_event is None:
            return
        try:
            self._on_event(event, job)
        except Exception:
            telemetry.incr("service.event_hook_errors")


class Supervisor(threading.Thread):
    """The farm's watchdog thread.

    Calls the service-provided ``tick`` every ``interval`` seconds;
    the service's tick respawns dead workers (recovering their
    orphaned jobs through the retry policy) and releases retry-backoff
    jobs whose delay has elapsed.  A raising tick is counted
    (``service.supervisor_errors``) and retried next period rather
    than allowed to kill supervision.
    """

    def __init__(self, tick: Callable[[], None], interval: float,
                 name: str = "service-supervisor"):
        super().__init__(name=name, daemon=True)
        self._tick = tick
        self._interval = interval
        self._stop_event = threading.Event()

    def request_stop(self) -> None:
        self._stop_event.set()

    def run(self) -> None:  # pragma: no branch - loop structure
        while not self._stop_event.wait(self._interval):
            try:
                self._tick()
            except Exception:
                telemetry.incr("service.supervisor_errors")
