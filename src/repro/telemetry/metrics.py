"""The locked metrics registry: counters, gauges, and histograms.

:class:`MetricsRegistry` is the single store behind the ambient
tracer's ``incr`` / ``gauge`` calls and the newer ``observe`` call
sites (prove latency per phase, MSM/FFT batch sizes, queue wait time,
batch-verify amortization).  It exists separately from the span tree
because flat metrics outlive any one trace: the proving service
exposes a registry snapshot over its whole lifetime
(``ProvingService.metrics_text()``), while traces are per job.

Design constraints (same contract as the tracer, DESIGN.md 5h):

- **Zero dependencies**, importable from the hottest modules.
- **One lock** around every mutation; snapshot methods return deep
  copies so no caller can ever mutate registry state through a
  returned object (a regression test pins this).
- **Fork-mergeable.**  ``snapshot()`` / ``merge()`` are the
  counter/histogram halves of the tracer's forked-runner capture:
  counters and bucket counts add, gauges last-write-win, min/max widen.

Histograms use **fixed log-scale buckets** so that merging is exact
(no rebucketing) and Prometheus exposition is straightforward:

- :data:`LATENCY_BUCKETS` -- powers of two from 100 us to ~7 min, for
  anything measured in seconds (``*.seconds`` metrics pick these by
  default);
- :data:`SIZE_BUCKETS` -- powers of four from 1 to ~4M, for batch
  sizes (MSM points per call, FFT sizes).

Quantiles (p50/p95/p99) are estimated by linear interpolation inside
the covering bucket and clamped to the observed min/max, which is the
standard fixed-bucket estimator: exact bucket attribution, bounded
relative error set by the bucket growth factor.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping

#: Powers of two from 1e-4 s (~100 us) upward; 23 buckets reach ~419 s,
#: past the slowest end-to-end TPC-H prove the repo has measured.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-4 * (2.0 ** i) for i in range(23))

#: Powers of four from 1 to ~4.2M -- batch sizes (points, rows, bytes).
SIZE_BUCKETS: tuple[float, ...] = tuple(float(4 ** i) for i in range(12))

#: The quantiles every summary reports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object] | None) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def default_bounds(name: str) -> tuple[float, ...]:
    """Bucket bounds inferred from the metric name: ``*seconds*``
    metrics get the latency ladder, everything else the size ladder."""
    return LATENCY_BUCKETS if "seconds" in name else SIZE_BUCKETS


class _Hist:
    """One (name, labels) histogram series.  Mutated under the owning
    registry's lock only."""

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds
        # counts[i] pairs with bounds[i]; the final slot is +Inf.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable copy of one histogram series.

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    exclusive of earlier buckets; the last entry counts the overflow
    (+Inf) bucket.  All quantile math happens here, on the snapshot,
    so it never holds the registry lock.
    """

    name: str
    labels: LabelPairs = ()
    bounds: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()
    sum: float = 0.0
    count: int = 0
    min: float = 0.0
    max: float = 0.0

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``0 < q <= 1``): linear
        interpolation inside the covering bucket, clamped to the
        observed [min, max] so tiny samples stay sane."""
        if self.count <= 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bucket_count in enumerate(self.counts):
            upper = self.bounds[i] if i < len(self.bounds) else self.max
            if bucket_count and cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
            lower = upper
        return self.max

    def summary(self) -> dict[str, float]:
        """The p50/p95/p99 + count/sum/min/max dict reports embed."""
        out: dict[str, float] = {
            "count": float(self.count),
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def as_dict(self) -> dict:
        """JSON-safe form (trace files, fork snapshots)."""
        return {
            "name": self.name,
            "labels": [list(pair) for pair in self.labels],
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSnapshot":
        return cls(
            name=str(data["name"]),
            labels=tuple(
                (str(k), str(v)) for k, v in data.get("labels", ())
            ),
            bounds=tuple(float(b) for b in data.get("bounds", ())),
            counts=tuple(int(c) for c in data.get("counts", ())),
            sum=float(data.get("sum", 0.0)),
            count=int(data.get("count", 0)),
            min=float(data.get("min", 0.0)),
            max=float(data.get("max", 0.0)),
        )


class MetricsRegistry:
    """Locked counters + gauges + fixed-bucket histograms.

    The ambient tracer owns one (:attr:`repro.telemetry.tracer.Tracer.metrics`)
    and delegates its historical ``incr``/``gauge`` surface here, so
    every counter that predates the registry keeps working unchanged
    while gaining exposition and fork-merge for free.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[LabelPairs, _Hist]] = {}

    # -- mutation ---------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
        bounds: Iterable[float] | None = None,
    ) -> None:
        """Record one sample into the ``(name, labels)`` histogram.

        The first observation of a series fixes its bucket bounds
        (explicit ``bounds``, else inferred from the name); later
        observations reuse them, so a series is always self-consistent
        and merges exactly.
        """
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.get(name)
            if series is None:
                series = self._histograms[name] = {}
            hist = series.get(key)
            if hist is None:
                resolved = (
                    tuple(float(b) for b in bounds)
                    if bounds is not None
                    else default_bounds(name)
                )
                hist = series[key] = _Hist(resolved)
            hist.observe(float(value))

    # -- snapshots (always deep copies) -----------------------------------

    def counters_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def histograms_snapshot(self) -> list[HistogramSnapshot]:
        """Every histogram series as an immutable snapshot, sorted by
        (name, labels) for deterministic exposition."""
        with self._lock:
            out = [
                HistogramSnapshot(
                    name=name,
                    labels=labels,
                    bounds=tuple(hist.bounds),
                    counts=tuple(hist.counts),
                    sum=hist.sum,
                    count=hist.count,
                    min=hist.min if hist.count else 0.0,
                    max=hist.max if hist.count else 0.0,
                )
                for name, series in self._histograms.items()
                for labels, hist in series.items()
            ]
        out.sort(key=lambda snap: (snap.name, snap.labels))
        return out

    def histogram(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> HistogramSnapshot | None:
        """The snapshot of one series, or ``None`` if never observed."""
        key = _label_key(labels)
        for snap in self.histograms_snapshot():
            if snap.name == name and snap.labels == key:
                return snap
        return None

    def summary(self) -> dict:
        """The full registry as plain dicts (bench stamping, tests)."""
        return {
            "counters": self.counters_snapshot(),
            "gauges": self.gauges_snapshot(),
            "histograms": {
                _series_key(snap): snap.summary()
                for snap in self.histograms_snapshot()
            },
        }

    # -- fork merge and lifecycle -----------------------------------------

    def histograms_as_dicts(self) -> list[dict]:
        """Picklable histogram state for :class:`TraceSnapshot`."""
        return [snap.as_dict() for snap in self.histograms_snapshot()]

    def merge(
        self,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        histograms: Iterable[Mapping] | None = None,
    ) -> None:
        """Fold a runner's snapshot in: counters and bucket counts add,
        gauges last-write-win, min/max widen.  A bucket-layout clash
        (same series name, different bounds -- only possible across
        code versions) falls back to re-observing the remote sum as
        ``count`` samples of the mean, keeping totals right."""
        with self._lock:
            for name, value in (counters or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges or {})
        for data in histograms or ():
            snap = HistogramSnapshot.from_dict(data)
            key = snap.labels
            with self._lock:
                series = self._histograms.setdefault(snap.name, {})
                hist = series.get(key)
                if hist is None:
                    hist = series[key] = _Hist(snap.bounds)
                if hist.bounds == snap.bounds and len(hist.counts) == len(
                    snap.counts
                ):
                    for i, c in enumerate(snap.counts):
                        hist.counts[i] += c
                    hist.sum += snap.sum
                    hist.count += snap.count
                    if snap.count:
                        hist.min = min(hist.min, snap.min)
                        hist.max = max(hist.max, snap.max)
                    continue
            if snap.count:  # layout clash: degrade, never drop mass
                mean = snap.sum / snap.count
                for _ in range(snap.count):
                    self.observe(snap.name, mean, labels=dict(snap.labels))

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}

    def after_fork(self) -> None:
        """In a forked child: a new lock, since a parent thread may
        have held the old one at the fork and never will release it
        here."""
        self._lock = threading.Lock()


def _series_key(snap: HistogramSnapshot) -> str:
    if not snap.labels:
        return snap.name
    inner = ",".join(f"{k}={v}" for k, v in snap.labels)
    return f"{snap.name}{{{inner}}}"
