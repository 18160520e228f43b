"""Worker-pool parallelism with a serial fallback.

The paper's prover is embarrassingly parallel in several hot spots --
Pippenger bucket windows, per-column FFTs and commitments, generator
derivation -- and the Rust artifact exploits every core.  This module
is the single place the pure-Python stack goes parallel: a persistent
process pool plus ``pmap``, a deterministic ordered map over argument
tuples.

Design rules (every consumer relies on them):

- **Serial fallback.**  With ``workers <= 1`` (the default), no pool
  exists and ``pmap`` runs inline, so single-core environments and
  debugging sessions pay zero overhead.
- **Determinism.**  Tasks must be pure functions of their (picklable)
  arguments; ``pmap`` preserves submission order, so parallel results
  are bit-identical to the serial path.
- **No nesting.**  A forked worker inherits this module's globals; the
  parent-PID guard makes ``pmap`` inside a worker run serially instead
  of deadlocking on the inherited pool.
- **Thread-safe dispatch.**  Several threads may call ``pmap`` at once
  (a session's own thread beside the proving service's worker 0); pool
  creation is locked so exactly one process pool ever exists, and
  ``ProcessPoolExecutor`` serializes the submissions themselves.  The
  service's forked runner processes set ``configure(0)``, so
  ``REPRO_WORKERS`` never starts one pool per worker.
  ``configure``/``parallelism`` remain process-global settings -- scope
  them at session setup, not from concurrent jobs.

Configure globally with :func:`configure` (or the ``REPRO_WORKERS``
environment variable), or per-scope with the :func:`parallelism`
context manager.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

#: Below this many tasks, pool dispatch overhead beats the win.
MIN_TASKS = 2


def _env_workers() -> int:
    try:
        return max(0, int(os.environ.get("REPRO_WORKERS", "0") or "0"))
    except ValueError:
        return 0


class WorkerPool:
    """A lazily started process pool mapping functions over argument
    tuples in submission order.

    The pool prefers the ``fork`` start method (workers inherit the
    curve/field singletons for free); on platforms without it the
    default context is used.  If the pool cannot start at all, the
    pool degrades permanently to serial execution.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._executor: ProcessPoolExecutor | None = None
        self._parent_pid = os.getpid()
        self._broken = False
        self._start_lock = threading.Lock()

    @property
    def usable(self) -> bool:
        """True when dispatching to workers is possible and sensible."""
        return (
            self.workers > 1
            and not self._broken
            and os.getpid() == self._parent_pid
        )

    def _executor_or_none(self) -> ProcessPoolExecutor | None:
        with self._start_lock:
            if self._executor is None and not self._broken:
                try:
                    try:
                        ctx = multiprocessing.get_context("fork")
                    except ValueError:  # pragma: no cover - non-POSIX
                        ctx = multiprocessing.get_context()
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=ctx
                    )
                except OSError:  # pragma: no cover - fork refused
                    self._broken = True
            return self._executor

    def starmap(
        self, fn: Callable[..., T], tasks: Sequence[tuple]
    ) -> list[T]:
        """Apply ``fn(*args)`` to every tuple; results keep task order."""
        if not self.usable or len(tasks) < MIN_TASKS:
            return [fn(*args) for args in tasks]
        executor = self._executor_or_none()
        if executor is None:  # pragma: no cover - fork refused
            return [fn(*args) for args in tasks]
        futures = [executor.submit(fn, *args) for args in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        # A forked child only drops its copy: the executor is the
        # parent's to shut down.
        if self._executor is not None and os.getpid() == self._parent_pid:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None


_workers: int = _env_workers()
_pool: WorkerPool | None = None
_pool_lock = threading.Lock()


def _new_lock_after_fork() -> None:
    # A parent thread may have held it at the fork; in the child nothing
    # would ever release it.
    global _pool_lock
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_lock_after_fork)


def configure(workers: int | None) -> None:
    """Set the global worker count.  ``0``/``1``/``None`` mean serial."""
    global _workers, _pool
    count = max(0, int(workers or 0))
    with _pool_lock:
        if _pool is not None and _pool.workers != max(1, count):
            _pool.close()
            _pool = None
        _workers = count


def workers() -> int:
    """The configured worker count (0 = serial)."""
    return _workers


def is_parallel() -> bool:
    """True when pmap would actually fan out to worker processes."""
    return _workers > 1 and (_pool is None or _pool.usable)


def _traced_task(
    fn: Callable[..., T], args: tuple, context: dict | None = None
) -> tuple[T, Any]:
    """Worker-side wrapper: run the task under a telemetry capture so
    its spans/counters travel back to the parent with the result.
    ``context`` is the dispatching thread's job-scoped trace context
    (job_id/trace_id), re-entered inside the worker."""
    from repro import telemetry

    return telemetry.run_captured(fn, args, context=context)


def pmap(fn: Callable[..., T], tasks: Sequence[tuple]) -> list[T]:
    """Ordered parallel starmap over ``tasks`` (serial fallback).

    With telemetry enabled, each worker's spans and counters are
    captured and merged into the parent trace tagged by chunk index,
    so counter totals match the serial path exactly.
    """
    global _pool
    if _workers <= 1 or len(tasks) < MIN_TASKS:
        return [fn(*args) for args in tasks]
    with _pool_lock:
        if _pool is None:
            _pool = WorkerPool(_workers)
        pool = _pool
    from repro import telemetry

    if telemetry.enabled():
        context = telemetry.current_context() or None
        tagged = pool.starmap(
            _traced_task, [(fn, args, context) for args in tasks]
        )
        return telemetry.absorb_task_results(tagged)
    return pool.starmap(fn, tasks)


def shutdown() -> None:
    """Tear down the global pool (tests; atexit-safe to skip)."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.close()
            _pool = None


@contextmanager
def parallelism(workers_: int) -> Iterator[None]:
    """Temporarily run with ``workers_`` workers (context manager)."""
    previous = _workers
    configure(workers_)
    try:
        yield
    finally:
        configure(previous)


# -- work splitting helpers -------------------------------------------------


def chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous, balanced
    ``(start, stop)`` ranges (never empty)."""
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def chunked(items: Sequence[Any], parts: int) -> list[list[Any]]:
    """Split a sequence into at most ``parts`` contiguous balanced runs."""
    return [list(items[lo:hi]) for lo, hi in chunk_bounds(len(items), parts)]
