"""``repro.service`` -- the async proving service.

Layered on the :class:`~repro.api.Session` facade: submit SQL queries
as jobs, fan them out to a farm of long-lived prover workers with warm
proving keys, track progress live through telemetry spans, and verify
the resulting proofs in amortized batches.  See DESIGN.md section 5f.

Fault tolerance (DESIGN.md section 5i): a durable, checksummed job
journal (:mod:`repro.service.journal`) makes the service crash-safe --
``Session.serve(..., journal_path=)`` on an existing journal replays it
and re-proves interrupted jobs byte-identically under their pinned
``rng_seed`` -- while a supervisor
respawns dead workers, bounded retries with exponential backoff absorb
transient failures, deadlines bound per-job wall clock, and per-tenant
quotas fence admissions.  :mod:`repro.service.chaos` is the seeded
fault-injection harness that proves those properties hold.
"""

from repro.config import ServiceConfig
from repro.service.jobs import JobId, JobState, JobStatus, Priority
from repro.service.journal import JobJournal, JournalReplay, replay
from repro.service.queue import JobQueue
from repro.service.scheduler import ProverWorker, Supervisor, WorkerKilled
from repro.service.service import ProvingService

__all__ = [
    "JobId",
    "JobJournal",
    "JobQueue",
    "JobState",
    "JobStatus",
    "JournalReplay",
    "Priority",
    "ProverWorker",
    "ProvingService",
    "ServiceConfig",
    "Supervisor",
    "WorkerKilled",
    "replay",
]
