"""Where a service job runs: one job function, two kinds of runner.

Every :class:`~repro.service.scheduler.ProverWorker` keeps its thread in
the service process -- queue, claim, journal, retries and live status
stay there -- and hands the prove itself to a *runner*.  Worker 0's
runner is the service's own process (:class:`InProcessRunner`).  The
runner of every other worker is a process forked when that worker is
spawned (:class:`ForkedRunner`), so ``workers=N`` proves in N processes
instead of N threads under one interpreter lock, and ``workers=1`` forks
nothing.

Both runners execute :func:`run_job` and speak one message set:

- in: a :class:`JobRequest` -- ``sql``, ``rng_seed``, ``job_id``,
  ``trace_id``, ``deadline_at``;
- out: ``(event, span name, seconds)`` span begin/end events while the
  job runs (they drive the job's live ``phase`` / ``span_path``), then
  one :class:`JobOutcome` -- the response, or the error text with its
  classification.  A forked runner runs the job under
  :func:`repro.telemetry.run_captured` and ships the job's telemetry
  snapshot with the outcome; :meth:`ForkedRunner.run` folds it into the
  service's tracer (:func:`repro.telemetry.merge_captured`), so
  ``keygen.*`` counters and per-job traces look as if the job ran in
  the service process.

A forked runner inherits the database, parameters, commitment secrets,
fixed-base tables and the keys memoized before its fork, and keeps its
copy of the key memo for its whole life.  It exits when its pipe
closes.  A runner that dies shows up as EOF on the pipe, which its
worker treats as its own death.  Fork rules
(:func:`_serve`): drop the inherited ``deterministic_rng`` stream and
close the other runners' pipe ends; the modules that own locks
re-create them in the child (``os.register_at_fork``).  The runners are
the only parallelism: each proves one job at a time, serially.  See
DESIGN.md section 5f.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro import telemetry
from repro.algebra.field import deterministic_rng, forget_deterministic_rng
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.prover_node import ProverNode

#: ``on_span(event, name, seconds)`` with ``event`` ``"begin"`` or
#: ``"end"``; ``seconds`` is the span's wall time at ``"end"``, else 0.
SpanSink = Callable[[str, str, float], None]

#: :attr:`JobOutcome.failure` values.
DETERMINISTIC = "deterministic"
TRANSIENT = "transient"
DEADLINE = "deadline"


@dataclass(frozen=True)
class JobRequest:
    """What a runner needs to prove one job."""

    sql: str
    rng_seed: Optional[int]
    job_id: str
    trace_id: str
    #: Absolute wall-clock deadline (``time.time()`` scale), or None.
    deadline_at: Optional[float]


@dataclass
class JobOutcome:
    """A runner's answer: ``response`` on success, else ``error``
    (``"Type: message"``) and ``failure`` -- :data:`DETERMINISTIC`
    (never retried), :data:`TRANSIENT` (offered to the retry policy) or
    :data:`DEADLINE` (aborted mid-prove; ``error`` is None)."""

    response: Any = None
    error: Optional[str] = None
    failure: Optional[str] = None


class _DeadlineAbort(BaseException):
    """Internal cooperative-abort signal raised by the deadline check
    inside the job's span observer.  A ``BaseException`` so it passes
    through the tracer's observer dispatch (which contains
    ``Exception`` only) and unwinds the prove."""


def is_deterministic_failure(exc: BaseException) -> bool:
    """Whether retrying the same SQL could possibly succeed.

    The typed hierarchy is the classifier: every intentional
    :class:`~repro.errors.ReproError` (config, wire format, state,
    verification) is a property of the input, as are ``ValueError`` /
    ``TypeError`` parse-shaped errors.  Everything else -- resource
    exhaustion, injected crashes, genuine prover bugs -- is treated as
    transient and eligible for bounded retry.
    """
    return isinstance(exc, (ReproError, ValueError, TypeError, KeyError))


def run_job(
    prover: "ProverNode", request: JobRequest, on_span: SpanSink
) -> JobOutcome:
    """Prove one job; never raises for a failed job.

    Every span boundary on this thread goes to ``on_span`` after the
    cooperative deadline check (span observers only fire with telemetry
    enabled, so mid-prove deadlines need it)."""
    observer = _span_observer(request.deadline_at, on_span)
    telemetry.add_span_observer(observer)
    seed_scope = (
        deterministic_rng(request.rng_seed)
        if request.rng_seed is not None
        else nullcontext()
    )
    try:
        # Every root span the job opens carries the job's trace
        # identity, so write_trace can stitch one tree per job
        # afterwards.
        with telemetry.job_scope(
            job_id=request.job_id, trace_id=request.trace_id
        ), seed_scope:
            return JobOutcome(response=prover.answer(request.sql))
    except _DeadlineAbort:
        return JobOutcome(failure=DEADLINE)
    except Exception as exc:  # a failed job must not take its runner down
        return JobOutcome(
            error=f"{type(exc).__name__}: {exc}",
            failure=(
                DETERMINISTIC if is_deterministic_failure(exc) else TRANSIENT
            ),
        )
    finally:
        telemetry.remove_span_observer(observer)


def _span_observer(deadline_at: float | None, on_span: SpanSink):
    """A span observer for the calling thread only: the deadline check,
    then the event for the job's live status."""
    thread_id = threading.get_ident()

    def observe(span, event: str) -> None:
        if threading.get_ident() != thread_id:
            return
        if deadline_at is not None and time.time() > deadline_at:
            raise _DeadlineAbort()
        on_span(
            event,
            getattr(span, "name", ""),
            span.duration if event == "end" else 0.0,
        )

    return observe


class InProcessRunner:
    """Worker 0's runner: the job runs on the worker's own thread, in
    the service's process."""

    def __init__(self, prover: "ProverNode"):
        self._prover = prover

    @property
    def pid(self) -> int:
        return os.getpid()

    def is_alive(self) -> bool:
        return True

    def run(self, request: JobRequest, on_span: SpanSink) -> JobOutcome:
        return run_job(self._prover, request, on_span)

    def close(self, timeout: float) -> None:
        """Nothing to stop: the runner is the service itself."""

    def kill(self) -> None:
        """Nothing to kill: the runner is the service itself."""


#: The service-side pipe ends of every runner.  A runner forked later
#: inherits them and closes them first thing, so each runner sees EOF
#: as soon as the service closes *its* pipe, or dies.
_SERVICE_ENDS: "weakref.WeakSet[Any]" = weakref.WeakSet()


class ForkedRunner:
    """The runner of workers 1..N-1: a process forked from the service
    at construction, answering :class:`JobRequest` messages until its
    pipe closes."""

    def __init__(self, prover: "ProverNode", name: str):
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        _SERVICE_ENDS.add(self._conn)
        self._process = context.Process(
            target=_serve, args=(child_end, prover), name=name, daemon=True
        )
        self._process.start()
        child_end.close()  # else the service would never see EOF

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def run(self, request: JobRequest, on_span: SpanSink) -> JobOutcome:
        """Send ``request``; relay span events to ``on_span`` until the
        outcome arrives.  ``EOFError`` / ``OSError`` mean the runner
        died."""
        self._conn.send(request)
        while True:
            kind, *body = self._conn.recv()
            if kind == "span":
                on_span(*body)
                continue
            outcome, snapshot = body
            telemetry.merge_captured(snapshot)
            return outcome

    def close(self, timeout: float) -> None:
        """Close the pipe -- the runner exits at EOF -- and join it;
        kill it if it has not exited after ``timeout`` seconds.  Only
        once no thread is using the pipe."""
        self._conn.close()
        self._process.join(timeout)
        if self._process.is_alive():
            self.kill()

    def kill(self) -> None:
        """SIGKILL the runner and reap it.  A thread blocked on its pipe
        then reads EOF."""
        self._process.kill()
        self._process.join()


def _serve(conn, prover: "ProverNode") -> None:
    """A forked runner's whole life: apply the fork rules, then answer
    requests until the service closes the pipe."""
    for inherited in list(_SERVICE_ENDS):
        inherited.close()
    # Ctrl-C is the service's to handle; the runner follows its pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    forget_deterministic_rng()

    def on_span(event: str, name: str, seconds: float) -> None:
        conn.send(("span", event, name, seconds))

    try:
        while True:
            request = conn.recv()
            outcome, snapshot = telemetry.run_captured(
                run_job, (prover, request, on_span)
            )
            conn.send(("outcome", outcome, snapshot))
    except (EOFError, OSError):
        return  # the service closed the pipe, or is gone
