"""Job records for the async proving service.

A *job* is one ``submit()``-ed SQL query working its way through the
queue and a prover worker.  :class:`Job` is the internal mutable
record (its state machine guarded by a per-job lock plus a completion
event); :class:`JobStatus` is the immutable snapshot handed to
clients, and :class:`JobState` / :class:`Priority` are the public
enums both sides share.

State transitions go through :meth:`Job.claim` / :meth:`Job.requeue` /
:meth:`Job.finish`, which are atomic and idempotent: a job that two
workers race to start (a duplicated queue pop, which the chaos harness
in ``tests/chaos.py`` injects) is claimed exactly once, and a job can
never reach a terminal state twice -- the invariants that harness
asserts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, NewType, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.prover_node import QueryResponse

#: Opaque job handle returned by ``ProvingService.submit``.
JobId = NewType("JobId", str)

_JOB_SEQ = itertools.count(1)
_SEQ_LOCK = threading.Lock()


def next_seq() -> int:
    with _SEQ_LOCK:
        return next(_JOB_SEQ)


def advance_seq(floor: int) -> None:
    """Ensure future sequence numbers exceed ``floor``.

    Journal recovery restores jobs with their original sequence
    numbers (they encode FIFO order inside a priority lane); new
    submissions in the recovered process must sort after them even
    though this process's counter started back at 1.
    """
    global _JOB_SEQ
    with _SEQ_LOCK:
        current = next(_JOB_SEQ)
        _JOB_SEQ = itertools.count(max(current, floor + 1))


class JobState(str, Enum):
    """Lifecycle of a submitted job.

    ``QUEUED -> RUNNING -> DONE | FAILED`` is the normal path; a
    retried job moves ``RUNNING -> QUEUED`` again (bounded by
    ``max_retries``); ``CANCELLED`` is reached via
    ``ProvingService.cancel`` or at service shutdown with the job
    still queued.
    """

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Priority(IntEnum):
    """Scheduling lanes; lower value drains first.  ``HIGH`` jobs also
    get exclusive use of the queue's reserved headroom under load
    (see :class:`~repro.config.ServiceConfig.high_priority_reserve`)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass(frozen=True)
class JobStatus:
    """An immutable point-in-time view of one job.

    ``queue_position`` is 0-based among queued jobs in dispatch order
    (``None`` once running); ``phase`` is the innermost ``prove.*``
    telemetry span currently open on the job's worker (``None`` when
    telemetry is disabled or the job is not running); ``phases`` maps
    completed prover phases to their wall seconds so far.
    """

    job_id: JobId
    state: JobState
    sql: str
    priority: Priority
    queue_position: Optional[int] = None
    phase: Optional[str] = None
    phases: dict[str, float] = field(default_factory=dict)
    worker: Optional[str] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The job-scoped trace id stamped on every telemetry root span the
    #: job produces, in whichever runner proves it.
    trace_id: str = ""
    #: The live span path on the job's worker, root first (e.g.
    #: ``"prove/prove.multiopen"``); ``""`` unless running with
    #: telemetry enabled.
    span_path: str = ""
    #: The submitting tenant (admission-quota accounting key).
    tenant: Optional[str] = None
    #: Wall-clock budget from submission; ``None`` = unbounded.
    deadline_seconds: Optional[float] = None
    #: How many retry re-enqueues the job has consumed so far.
    attempts: int = 0
    #: True when this job was restored from a journal replay.
    recovered: bool = False

    @property
    def elapsed_seconds(self) -> float:
        """Queue wait plus run time so far (or total, once finished)."""
        end = self.finished_at if self.finished_at is not None else time.time()
        return max(0.0, end - self.submitted_at)


class Job:
    """The service-internal mutable record for one submission."""

    __slots__ = (
        "job_id",
        "sql",
        "priority",
        "seq",
        "rng_seed",
        "tenant",
        "deadline_seconds",
        "max_retries",
        "attempts",
        "expected_digest",
        "recovered",
        "result_digest",
        "state",
        "response",
        "error",
        "phase",
        "phases",
        "worker",
        "submitted_at",
        "started_at",
        "finished_at",
        "done",
        "trace_id",
        "open_spans",
        "_lock",
        "completions",
    )

    def __init__(
        self,
        sql: str,
        priority: Priority = Priority.NORMAL,
        rng_seed: int | None = None,
        tenant: str | None = None,
        deadline_seconds: float | None = None,
        max_retries: int = 0,
        job_id: JobId | None = None,
        seq: int | None = None,
    ):
        self.seq = seq if seq is not None else next_seq()
        self.job_id = (
            job_id
            if job_id is not None
            else JobId(f"job-{self.seq:06d}-{os.urandom(4).hex()}")
        )
        #: One trace per job: stamped onto every root span the job's
        #: prover thread opens.
        self.trace_id = f"trace-{os.urandom(8).hex()}"
        #: Names of the currently-open spans of the job's prove, root
        #: first (mirrored from the runner's span events).
        self.open_spans: list[str] = []
        self.sql = sql
        self.priority = Priority(priority)
        self.rng_seed = rng_seed
        self.tenant = tenant
        self.deadline_seconds = deadline_seconds
        self.max_retries = max_retries
        self.attempts = 0
        #: Journal-recorded proof digest a replayed job must reproduce
        #: (checked only when ``rng_seed`` pins the blinds).
        self.expected_digest: str | None = None
        self.recovered = False
        #: Digest of the completed proof's wire bytes (set at DONE).
        self.result_digest: str | None = None
        self.state = JobState.QUEUED
        self.response: "QueryResponse | None" = None
        self.error: str | None = None
        self.phase: str | None = None
        self.phases: dict[str, float] = {}
        self.worker: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Set exactly once, after the job's terminal transition (and,
        #: for a worker-finished job, its journal record).
        self.done = threading.Event()
        #: Guards every state transition (claim/requeue/finish/cancel).
        self._lock = threading.Lock()
        #: Terminal-transition count; >1 would mean a double completion
        #: (the chaos harness's core invariant) and is made impossible by
        #: :meth:`finish`'s idempotency.
        self.completions = 0

    @property
    def order_key(self) -> tuple[int, int]:
        """Heap key: priority lane first, then submission order."""
        return (int(self.priority), self.seq)

    @property
    def deadline_at(self) -> float | None:
        """Absolute wall-clock deadline, or ``None``."""
        if self.deadline_seconds is None:
            return None
        return self.submitted_at + self.deadline_seconds

    def deadline_passed(self, now: float | None = None) -> bool:
        deadline = self.deadline_at
        if deadline is None:
            return False
        return (now if now is not None else time.time()) > deadline

    # -- atomic state transitions ----------------------------------------

    def claim(self, worker: str) -> bool:
        """Atomically move QUEUED -> RUNNING for ``worker``.

        Returns False when the job is not claimable (already running
        elsewhere after a duplicated pop, cancelled, or finished) --
        the caller must then skip it.
        """
        with self._lock:
            if self.state is not JobState.QUEUED:
                return False
            self.state = JobState.RUNNING
            self.worker = worker
            self.started_at = time.time()
            return True

    def requeue(self) -> bool:
        """Move a non-terminal job back to QUEUED for a retry."""
        with self._lock:
            if self.completions:
                return False
            self.state = JobState.QUEUED
            self.worker = None
            self.phase = None
            return True

    def mark_cancelled_if_queued(self) -> bool:
        """Atomically reserve a queued job for cancellation (so a
        racing ``claim`` loses); the caller completes with
        :meth:`finish`."""
        with self._lock:
            if self.state is not JobState.QUEUED or self.completions:
                return False
            self.state = JobState.CANCELLED
            return True

    def finish(
        self, state: JobState, error: str | None = None, *, release: bool = True
    ) -> bool:
        """Move to a terminal state exactly once; False if already
        terminal (the double-completion guard).

        With ``release=False`` the waiters stay blocked until
        :meth:`release`: the caller first makes the outcome durable
        (its journal record), so no client holds a result
        that a crash could still lose."""
        with self._lock:
            if self.completions:
                return False
            self.state = state
            self.error = error
            self.finished_at = time.time()
            self.phase = None
            self.completions += 1
        if release:
            self.release()
        return True

    def release(self) -> None:
        """Wake :meth:`~repro.service.ProvingService.wait` callers (after
        a :meth:`finish` with ``release=False``)."""
        self.done.set()

    def snapshot(self, queue_position: int | None = None) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            sql=self.sql,
            priority=self.priority,
            queue_position=queue_position,
            phase=self.phase,
            phases=dict(self.phases),
            worker=self.worker,
            error=self.error,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            trace_id=self.trace_id,
            span_path="/".join(self.open_spans),
            tenant=self.tenant,
            deadline_seconds=self.deadline_seconds,
            attempts=self.attempts,
            recovered=self.recovered,
        )
