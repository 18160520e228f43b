"""A host-speed meter, so that seconds mean the same on a busy host.

The hosts this benchmark runs on are shared: the same process runs
20-25 % slower for ten to forty seconds at a time while a neighbour is
busy (README.md, "Noise"), which is wider than any regression bound
worth having.  The slowdown is a property of the core, not of the
program -- a fixed loop of plain-Python big-integer multiplications
slows by the same factor (correlation 0.84 sample by sample, and the
ratio of the two is 3-5x steadier than either).

So the child process runs that fixed loop for ~5 ms every 250 ms on a
timer signal (2 % of the time), and every end-to-end time is reported
as *seconds at reference speed*: wall seconds divided by how much
slower than the reference the loop ran around that operation.  The
loop is in this file and touches nothing of ``repro``, so no change to
the program can move it.  It is timed in thread CPU time, which under
the service's worker threads counts the loop's own work and not its
waits for the interpreter lock.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

# CPU seconds the loop takes on the reference host (this container's
# 2-core host when quiet): the unit every end-to-end time is in.
REFERENCE_SECONDS = 0.005
PERIOD_SECONDS = 0.25
# Samples this close to an operation's ends speak for it; a 0.15 s
# verify has none inside.
PAD_SECONDS = 0.6

_MODULUS = (1 << 255) - 19
_MULTIPLICATIONS = 10_000


def _loop() -> int:
    a = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF % _MODULUS
    b = a ^ 0xDEADBEEF
    for _ in range(_MULTIPLICATIONS):
        a = a * b % _MODULUS
    return a


class HostSpeedMeter:
    """Samples the host's speed in the background of the main thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, loop CPU seconds)
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.01, PERIOD_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum: int, frame: object) -> None:
        start = thread_time()
        _loop()
        self.samples.append((perf_counter(), thread_time() - start))

    def factor(self, t0: float, t1: float) -> float:
        """How many times slower than the reference the host ran
        between ``t0`` and ``t1`` (``perf_counter`` stamps)."""
        lo, hi = t0 - PAD_SECONDS, t1 + PAD_SECONDS
        near = [cost for when, cost in self.samples if lo <= when <= hi]
        if not near:  # a meter that never ticked changes nothing
            near = [cost for _, cost in self.samples] or [REFERENCE_SECONDS]
        return statistics.median(near) / REFERENCE_SECONDS

    def seconds(self, t0: float, t1: float) -> float:
        """``t1 - t0`` in seconds at reference speed."""
        return (t1 - t0) / self.factor(t0, t1)
