"""``repro.telemetry``: hierarchical tracing + proof-pipeline metrics.

The measurement substrate for the paper's Figures 8-9 (per-phase
proof-generation breakdowns) and for future performance work: nested
spans with wall/CPU time, flat counters/gauges for the quantities that
drive proving cost (``msm.points``, ``fft.calls``, ``field.inversions``,
``lookup.rows``, ``proof.bytes``, ``cache.hit``/``cache.miss``), a
JSONL trace exporter with a CLI renderer, and a static
:class:`~repro.telemetry.circuit.CircuitReport` cost pass over circuit
shapes.

Telemetry is **off by default** and the disabled path is a no-op
(guarded to < 2% overhead on ``create_proof``).  Enable it per session
(``ProverConfig(telemetry=True)``), globally (:func:`enable`), or via
the ``REPRO_TELEMETRY`` environment variable::

    from repro import PoneglyphDB, ProverConfig, telemetry

    with PoneglyphDB.open(db, ProverConfig(k=7, telemetry=True)) as s:
        response = s.prove("select count(*) from lineitem")
        print(response.report["phases"])          # wall time per phase
    telemetry.write_trace("trace.jsonl", telemetry.get_tracer())
    # then: python -m repro.telemetry.report trace.jsonl

All ambient helpers delegate to one module-level :class:`Tracer`;
libraries never construct their own (tests may).
"""

from __future__ import annotations

import os
from typing import Any, Callable, TypeVar

from repro.telemetry.export import (
    Trace,
    phase_report,
    read_trace,
    render_phases,
    render_tree,
    write_trace,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import (
    NOOP_SPAN,
    Span,
    Stopwatch,
    Tracer,
    TraceSnapshot,
)

T = TypeVar("T")

_ENV_ENABLE = "REPRO_TELEMETRY"

#: The ambient tracer every instrumentation site reports to.
_TRACER = Tracer(enabled=bool(os.environ.get(_ENV_ENABLE)))
os.register_at_fork(after_in_child=_TRACER.after_fork)


def get_tracer() -> Tracer:
    """The ambient tracer (one per process; forked runners inherit it)."""
    return _TRACER


def enabled() -> bool:
    return _TRACER.enabled


def enable(on: bool = True) -> bool:
    """Switch telemetry collection; returns the previous setting."""
    previous = _TRACER.enabled
    _TRACER.enabled = bool(on)
    return previous


def reset() -> None:
    """Drop everything collected so far (counters, gauges, spans)."""
    _TRACER.reset()


# -- spans -------------------------------------------------------------------


def span(name: str, **attrs: Any):
    """``with telemetry.span("msm", points=n):`` -- records a span when
    enabled, pure no-op otherwise."""
    return _TRACER.span(name, **attrs)


def timed_span(name: str, **attrs: Any):
    """Like :func:`span` but the yielded object always measures
    wall/CPU time (``.duration`` / ``.cpu``), even when disabled."""
    return _TRACER.timed_span(name, **attrs)


def begin_span(name: str, **attrs: Any):
    """Imperative (non-``with``) variant of :func:`timed_span`; the
    caller must call ``.end()``.  Useful across non-block-shaped
    regions like the prover's Fiat-Shamir rounds."""
    return _TRACER.begin(name, timed=True, **attrs)


def current_span() -> Span | None:
    return _TRACER.current_span()


def add_span_observer(fn) -> None:
    """Register ``fn(span, event)`` on the ambient tracer; ``event`` is
    ``"begin"`` or ``"end"`` and the call happens on the span's own
    thread.  The proving service uses this for live job-phase status."""
    _TRACER.add_observer(fn)


def remove_span_observer(fn) -> None:
    _TRACER.remove_observer(fn)


def stopwatch() -> Stopwatch:
    """A bare wall/CPU timer (never recorded in the trace).  The
    repo-wide home for ad-hoc timing -- benches and the verifier use
    this instead of rolling their own ``perf_counter`` pairs."""
    return Stopwatch()


def time_call(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn`` once; return ``(result, wall_seconds)``."""
    sw = Stopwatch().start()
    result = fn()
    sw.end()
    return result, sw.duration


# -- counters and gauges -------------------------------------------------------


def incr(name: str, value: float = 1) -> None:
    # Checked here as well as in the tracer: a disabled bump, the
    # commonest instrumentation event, then costs one call, not two.
    if _TRACER.enabled:
        _TRACER.incr(name, value)


def gauge(name: str, value: float) -> None:
    _TRACER.gauge(name, value)


def metrics_registry() -> MetricsRegistry:
    """The ambient tracer's metrics registry."""
    return _TRACER.metrics


def counters_snapshot() -> dict[str, float]:
    return _TRACER.counters_snapshot()


def gauges_snapshot() -> dict[str, float]:
    return _TRACER.gauges_snapshot()


def metrics_summary() -> dict:
    """Counters + gauges in one copied dict (bench-report stamping;
    callers may mutate the result freely)."""
    return _TRACER.metrics.summary()


# -- job-scoped trace context -------------------------------------------------


def job_scope(**fields: Any):
    """``with telemetry.job_scope(job_id=..., trace_id=...):`` -- stamp
    every root span opened by this thread with the given context, so a
    service job's whole span forest is attributable to its job.
    Nestable; inner scopes shadow outer keys."""
    return _TRACER.scoped_context(**fields)


def current_context() -> dict[str, Any]:
    """This thread's merged trace context (a copy; `{}` outside any
    :func:`job_scope`)."""
    return _TRACER.context()


# -- forked-runner capture/merge ---------------------------------------------


def run_captured(
    fn: Callable[..., T], args: tuple
) -> tuple[T, TraceSnapshot | None]:
    """Runner-side half: ``fn(*args)`` under a fresh capture, returned
    as ``(result, snapshot)``.  A forked service runner inherits the
    service's tracer, history included; the snapshot holds only what
    this call recorded (``None`` with telemetry off)."""
    with _TRACER.capture() as cap:
        result = fn(*args)
    return result, cap.snapshot()


def merge_captured(snapshot: TraceSnapshot | None) -> None:
    """Service-side half: fold a runner's snapshot into the ambient
    tracer -- counters add, spans re-parent under the
    active span (see :meth:`Tracer.merge`)."""
    if snapshot is not None:
        _TRACER.merge(snapshot)


def __getattr__(name: str):
    # CircuitReport pulls in the proving stack; import lazily so the
    # hot modules (msm/domain/field) can import repro.telemetry without
    # a cycle.
    if name == "CircuitReport":
        from repro.telemetry.circuit import CircuitReport

        return CircuitReport
    raise AttributeError(f"module 'repro.telemetry' has no attribute {name!r}")


__all__ = [
    "CircuitReport",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Stopwatch",
    "Trace",
    "TraceSnapshot",
    "Tracer",
    "add_span_observer",
    "begin_span",
    "counters_snapshot",
    "current_context",
    "current_span",
    "enable",
    "enabled",
    "gauge",
    "gauges_snapshot",
    "get_tracer",
    "incr",
    "job_scope",
    "metrics_registry",
    "merge_captured",
    "metrics_summary",
    "phase_report",
    "read_trace",
    "remove_span_observer",
    "render_phases",
    "render_tree",
    "reset",
    "run_captured",
    "span",
    "stopwatch",
    "time_call",
    "timed_span",
    "write_trace",
]
