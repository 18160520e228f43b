"""The tracing + metrics core: spans, counters, gauges.

Design constraints (see DESIGN.md section 5d):

- **Zero dependencies.**  Only the standard library; importable from
  the hottest modules (``ecc.msm``, ``algebra.domain``) without cycles.
- **No-op fast path.**  Telemetry is off by default; a disabled tracer
  must cost one attribute check per instrumentation site so
  ``create_proof`` regresses < 2% (guarded by a CI test).
- **Thread and fork safety.**  Counters mutate under a lock; the span
  stack is thread-local; the proving service's forked runners capture
  their own spans/counters and ship them back to the service as
  picklable snapshots (see :meth:`Tracer.capture` / :meth:`Tracer.merge`).

Two span flavours exist because their disabled behaviour differs:

- ``span(...)`` / ``Tracer.begin(..., timed=False)`` -- pure
  instrumentation.  Disabled, it returns a shared no-op singleton that
  measures nothing.  Use it everywhere the caller does not consume the
  duration (MSM, FFT, cache, keygen internals).
- ``timed_span(...)`` / ``Tracer.begin(..., timed=True)`` -- timing the
  caller *needs* (``ProverTiming`` fields, ``VerificationReport``
  elapsed).  Disabled, it degrades to a :class:`Stopwatch` that still
  measures wall/CPU time but records nothing in the trace.  This is the
  single home for wall-clock measurement in the repo -- the bench
  harness and the verifier route their timing through it instead of
  keeping their own ``perf_counter`` arithmetic.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator

from repro.telemetry.metrics import MetricsRegistry


class Stopwatch:
    """A wall/CPU timer with the same surface as :class:`Span`.

    The disabled-tracer stand-in for ``timed_span``: it measures but
    never records.  Also usable directly (``telemetry.stopwatch()``)
    where a plain timing helper is wanted.
    """

    __slots__ = ("duration", "cpu", "_t0", "_c0")

    def __init__(self) -> None:
        self.duration = 0.0
        self.cpu = 0.0
        self._t0 = 0.0
        self._c0 = 0.0

    def start(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def end(self, status: str | None = None) -> float:
        self.duration = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        return self.duration

    stop = end

    def set(self, **attrs: Any) -> "Stopwatch":
        return self

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc: Any) -> bool:
        self.end()
        return False


class _NoopSpan:
    """Shared do-nothing span for disabled untimed instrumentation."""

    __slots__ = ()
    duration = 0.0
    cpu = 0.0

    def start(self) -> "_NoopSpan":
        return self

    def end(self, status: str | None = None) -> float:
        return 0.0

    stop = end

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed region of work in the span tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "cpu",
        "attrs",
        "children",
        "status",
        "_tracer",
        "_c0",
        "_open",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self._c0 = time.process_time()
        self.duration = 0.0
        self.cpu = 0.0
        self.attrs = attrs
        self.children: list[Span] = []
        self.status = "ok"
        self._tracer = tracer
        self._open = True

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, status: str | None = None) -> float:
        """Close the span (idempotent); returns the wall duration."""
        if self._open:
            self.duration = time.perf_counter() - self.start
            self.cpu = time.process_time() - self._c0
            if status is not None:
                self.status = status
            self._tracer._end_span(self)
            self._open = False
        return self.duration

    stop = end

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration:.4f}s, {len(self.children)} children)"


class _SpanScope:
    """Context-manager wrapper: begins on enter, ends on exit, and marks
    the span ``error`` when an exception escapes the block."""

    __slots__ = ("_tracer", "_name", "_attrs", "_timed", "span")

    def __init__(self, tracer: "Tracer", name: str, timed: bool, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._timed = timed

    def __enter__(self):
        self.span = self._tracer.begin(self._name, timed=self._timed, **self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and isinstance(self.span, Span):
            self.span.set(error=exc_type.__name__)
            self.span.end(status="error")
        else:
            self.span.end()
        return False


@dataclass
class TraceSnapshot:
    """A picklable capture of one scope's telemetry (runner -> service)."""

    counters: dict[str, float] = dc_field(default_factory=dict)
    gauges: dict[str, float] = dc_field(default_factory=dict)
    spans: list[dict] = dc_field(default_factory=list)


class _Capture:
    """Handle yielded by :meth:`Tracer.capture`; ``snapshot()`` stays
    valid after the scope closes."""

    def __init__(self) -> None:
        self._snapshot: TraceSnapshot | None = None

    def snapshot(self) -> TraceSnapshot | None:
        return self._snapshot


def span_to_dict(span: Span) -> dict:
    """Nested dict form of a span tree (picklable / JSON-able)."""
    return {
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "cpu": span.cpu,
        "status": span.status,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(child) for child in span.children],
    }


class Tracer:
    """Hierarchical spans plus flat counters and gauges.

    One ambient instance lives in :mod:`repro.telemetry`; library code
    reaches it through the module-level helpers (``span``, ``incr``,
    ...), so tests can also build private tracers.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: The flat-metrics store; ``incr``/``gauge`` delegate here
        #: (see :mod:`repro.telemetry.metrics`).
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self._local = threading.local()
        #: Span lifecycle observers: ``fn(span, event)`` with event
        #: ``"begin"`` or ``"end"``, called on the span's own thread.
        #: Consumers (the proving service's live job-phase tracking)
        #: must be fast; one that raises is dropped from the list (and
        #: ``telemetry.observers_dropped`` bumped) rather than allowed
        #: to fail the instrumented work.
        self._observers: list = []

    # -- span observers ---------------------------------------------------

    def add_observer(self, fn) -> None:
        """Register ``fn(span, event)`` to be called at every span begin
        and end (enabled tracer only; the disabled fast path never sees
        observers)."""
        with self._lock:
            self._observers = self._observers + [fn]

    def remove_observer(self, fn) -> None:
        with self._lock:
            self._observers = [f for f in self._observers if f is not fn]

    def _notify(self, span: "Span", event: str) -> None:
        # Copy-on-write list + a local reference: add/remove replace the
        # list atomically under the lock, so dispatch never observes a
        # half-mutated list even as worker threads register/unregister.
        observers = self._observers
        for fn in observers:
            try:
                fn(span, event)
            except Exception:
                # An observer must never break proving.  Dropping it is
                # strictly safer than calling it again: a raising
                # observer tends to raise on every later span too.
                self.remove_observer(fn)
                self.metrics.incr("telemetry.observers_dropped")

    # -- job-scoped trace context -----------------------------------------

    def context(self) -> dict[str, Any]:
        """The current thread's trace context (``job_id``/``trace_id``
        and anything else pushed); a fresh copy, never the live dict."""
        stack = getattr(self._local, "context", None)
        merged: dict[str, Any] = {}
        for frame in stack or ():
            merged.update(frame)
        return merged

    @contextmanager
    def scoped_context(self, **fields: Any):
        """Push ``fields`` onto the thread's trace context for the
        scope.  Root spans opened inside the scope are stamped with the
        merged context, so every tree a job produces carries its
        ``job_id``/``trace_id`` and ``write_trace`` emits one
        stitched, attributable tree per job."""
        stack = getattr(self._local, "context", None)
        if stack is None:
            stack = []
            self._local.context = stack
        stack.append(dict(fields))
        try:
            yield
        finally:
            stack.pop()

    # -- span stack (thread-local) --------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, timed: bool = False, **attrs: Any):
        """Open a span.  The caller must ``end()`` it (or use the
        context managers :meth:`span` / :meth:`timed_span`).

        Disabled tracer: returns :data:`NOOP_SPAN`, or a started
        :class:`Stopwatch` when ``timed`` (still measures, records
        nothing).
        """
        if not self.enabled:
            return Stopwatch().start() if timed else NOOP_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            # Stamp the thread's trace context (job_id/trace_id) onto
            # every root so per-job trees stay attributable after
            # export; explicit attrs win on collision.
            context = self.context()
            if context:
                context.update(attrs)
                attrs = context
        span = Span(
            self,
            name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            attrs=attrs,
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        if self._observers:
            self._notify(span, "begin")
        return span

    def _end_span(self, span: Span) -> None:
        stack = self._stack()
        # Robust pop: an exception may have skipped descendants' end().
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.duration = span.start + span.duration - top.start
            top.status = "error"
        if span.parent_id is None:
            with self._lock:
                self.roots.append(span)
        if self._observers:
            self._notify(span, "end")

    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """``with tracer.span("prove.quotient", k=5):`` -- pure no-op
        when disabled."""
        return _SpanScope(self, name, timed=False, attrs=attrs)

    def timed_span(self, name: str, **attrs: Any) -> _SpanScope:
        """Like :meth:`span`, but the yielded object always measures
        wall/CPU time (a :class:`Stopwatch` when disabled)."""
        return _SpanScope(self, name, timed=True, attrs=attrs)

    # -- counters and gauges ---------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        self.metrics.incr(name, value)

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name, value)

    def counters_snapshot(self) -> dict[str, float]:
        return self.metrics.counters_snapshot()

    def gauges_snapshot(self) -> dict[str, float]:
        return self.metrics.gauges_snapshot()

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Drop all collected data (does not change ``enabled``)."""
        with self._lock:
            self.roots = []
        self.metrics.reset()
        self._local = threading.local()

    def after_fork(self) -> None:
        """In a forked child, where only the forking thread survives: new
        locks (another parent thread may have held the old ones at the
        fork), and no span observers (they belonged to parent threads
        that do not exist here)."""
        self._lock = threading.Lock()
        self._observers = []
        self.metrics.after_fork()

    # -- forked-runner capture and merge ---------------------------------

    @contextmanager
    def capture(self):
        """Collect everything recorded inside the scope into a fresh
        buffer and restore prior state afterwards.

        The runner-side half of the forked-runner merge: a forked
        runner inherits the service's tracer (enabled, with its
        history); ``capture`` shields that history and yields a handle
        whose ``snapshot()`` holds only the scope's own spans/counters.
        Returns a handle with ``snapshot() -> None`` when disabled.
        """
        handle = _Capture()
        if not self.enabled:
            yield handle
            return
        with self._lock:
            saved = (self.metrics, self.roots)
            self.metrics, self.roots = MetricsRegistry(), []
        saved_local = self._local
        self._local = threading.local()
        try:
            yield handle
        finally:
            with self._lock:
                handle._snapshot = TraceSnapshot(
                    counters=self.metrics.counters_snapshot(),
                    gauges=self.metrics.gauges_snapshot(),
                    spans=[span_to_dict(root) for root in self.roots],
                )
                self.metrics, self.roots = saved
            self._local = saved_local

    def merge(self, snapshot: TraceSnapshot) -> None:
        """Fold a runner's snapshot into this tracer.

        Counters add, gauges last-write-win, and
        the snapshot's root spans are re-parented under the currently
        active span (or become roots).
        """
        self.metrics.merge(counters=snapshot.counters, gauges=snapshot.gauges)
        parent = self.current_span()
        for span_dict in snapshot.spans:
            span = self._revive(span_dict, parent)
            if parent is None:
                with self._lock:
                    self.roots.append(span)

    def _revive(self, data: dict, parent: Span | None) -> Span:
        span = Span(
            self,
            data["name"],
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            attrs=dict(data.get("attrs", {})),
        )
        span.start = data.get("start", 0.0)
        span.duration = data.get("duration", 0.0)
        span.cpu = data.get("cpu", 0.0)
        span.status = data.get("status", "ok")
        span._open = False
        if parent is not None:
            parent.children.append(span)
        for child in data.get("children", []):
            self._revive(child, span)
        return span
