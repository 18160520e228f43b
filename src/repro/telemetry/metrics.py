"""The locked metrics registry: counters and gauges.

:class:`MetricsRegistry` is the single store behind the ambient
tracer's ``incr`` / ``gauge`` calls.  It exists separately from the
span tree because a forked runner ships its counters back beside its
spans, and the capture that isolates a runner's job swaps the whole
registry.

Design constraints (same contract as the tracer, DESIGN.md 5h):

- **Zero dependencies**, importable from the hottest modules.
- **One lock** around every mutation; snapshot methods return copies
  so no caller can ever mutate registry state through a returned
  object (a regression test pins this).
- **Fork-mergeable.**  :meth:`MetricsRegistry.merge` is the counter
  half of the tracer's forked-runner capture: counters add, gauges
  last-write-win.
"""

from __future__ import annotations

import threading
from typing import Mapping


class MetricsRegistry:
    """Locked counters + gauges.

    The ambient tracer owns one (:attr:`repro.telemetry.tracer.Tracer.metrics`)
    and delegates its ``incr``/``gauge`` surface here.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # -- mutation ---------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    # -- snapshots (always copies) ----------------------------------------

    def counters_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def summary(self) -> dict:
        """The full registry as plain dicts (bench stamping, tests)."""
        return {
            "counters": self.counters_snapshot(),
            "gauges": self.gauges_snapshot(),
        }

    # -- fork merge and lifecycle -----------------------------------------

    def merge(
        self,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
    ) -> None:
        """Fold a runner's snapshot in: counters add, gauges
        last-write-win."""
        with self._lock:
            for name, value in (counters or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges or {})

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}

    def after_fork(self) -> None:
        """In a forked child: a new lock, since a parent thread may
        have held the old one at the fork and never will release it
        here."""
        self._lock = threading.Lock()
