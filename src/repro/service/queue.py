"""The service's priority job queue with queue-depth load shedding.

A single binary heap ordered by ``(priority, submission seq)`` gives
strict priority lanes with FIFO order inside each lane.  Shedding is
depth-based and lane-aware: ``NORMAL`` / ``LOW`` submissions are
rejected once the queue reaches ``max_depth - high_priority_reserve``,
while ``HIGH`` jobs may fill the reserved headroom up to ``max_depth``
-- so under overload the service keeps accepting latency-sensitive
traffic while pushing back on the bulk lanes (the classic
admission-control shape; DESIGN.md section 5f).

Rejection is a typed :class:`~repro.errors.ServiceOverloaded` carrying
the observed depth, so clients can distinguish "back off and retry"
from a hard failure.
"""

from __future__ import annotations

import heapq
import threading

from repro.errors import ServiceClosed, ServiceOverloaded
from repro.service.jobs import Job, JobState, Priority


class JobQueue:
    """A bounded, priority-ordered queue of :class:`Job` records."""

    def __init__(self, max_depth: int, high_priority_reserve: int = 0):
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if not 0 <= high_priority_reserve < max_depth:
            raise ValueError("high_priority_reserve must be in [0, max_depth)")
        self.max_depth = max_depth
        self.high_priority_reserve = high_priority_reserve
        self._heap: list[tuple[tuple[int, int], Job]] = []
        self._cond = threading.Condition()
        self._closed = False
        self.shed_count = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def depth_limit(self, priority: Priority) -> int:
        """The admission bound for ``priority``: HIGH may use the full
        depth, everything else stops short of the reserved headroom."""
        if priority == Priority.HIGH:
            return self.max_depth
        return self.max_depth - self.high_priority_reserve

    def push(self, job: Job, force: bool = False) -> None:
        """Admit ``job`` or shed it with :class:`ServiceOverloaded`.

        ``force`` bypasses the depth bound (never the closed check):
        retry re-enqueues and journal recovery re-admit jobs the
        service already accepted once, so shedding them would break the
        no-lost-jobs contract.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosed("proving service is shut down")
            depth = len(self._heap)
            if not force and depth >= self.depth_limit(job.priority):
                self.shed_count += 1
                raise ServiceOverloaded(
                    f"queue depth {depth} at {job.priority.name} admission "
                    f"bound {self.depth_limit(job.priority)}; job shed",
                    queue_depth=depth,
                )
            heapq.heappush(self._heap, (job.order_key, job))
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> Job | None:
        """The next job in priority order, blocking up to ``timeout``
        seconds; ``None`` on timeout or when the queue is closed and
        drained."""
        with self._cond:
            while not self._heap:
                if self._closed or not self._cond.wait(timeout=timeout):
                    return None
            return heapq.heappop(self._heap)[1]

    def remove(self, job: Job) -> bool:
        """Withdraw a specific queued job (client cancellation); False
        when it is no longer in the heap (already popped or drained)."""
        with self._cond:
            for i, (_, queued) in enumerate(self._heap):
                if queued is job:
                    self._heap[i] = self._heap[-1]
                    self._heap.pop()
                    if i < len(self._heap):
                        heapq.heapify(self._heap)
                    return True
        return False

    def depths(self) -> dict[str, int]:
        """Current queued-job count per priority lane (all lanes always
        present, zero when empty) -- the ``health()`` snapshot shape."""
        with self._cond:
            counts = {lane.name: 0 for lane in Priority}
            for _, job in self._heap:
                counts[job.priority.name] += 1
            return counts

    def position(self, job: Job) -> int | None:
        """0-based dispatch rank of a queued job (``None`` if it is no
        longer queued)."""
        with self._cond:
            entries = [entry for entry, _ in self._heap]
            for entry, queued in self._heap:
                if queued is job:
                    return sum(1 for other in entries if other < entry)
        return None

    def close(self) -> list[Job]:
        """Stop admissions, wake every waiter, and drain the backlog.

        Returns the still-queued jobs (the service cancels them) so no
        submitted job is ever silently dropped.
        """
        with self._cond:
            self._closed = True
            drained = [job for _, job in self._heap]
            self._heap.clear()
            self._cond.notify_all()
        return drained

    @property
    def closed(self) -> bool:
        return self._closed
