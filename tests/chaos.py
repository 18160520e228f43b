"""Deterministic fault injection for the proving service.

Crash safety is a claim about *every* interleaving, but tests only run
a few -- so this module makes the dangerous interleavings first-class
and reproducible.  A :class:`ChaosService` is a
:class:`~repro.service.service.ProvingService` whose ``_spawn_worker``
-- through which every worker is built, at first start and at each
respawn -- wraps the worker's runner and its view of the queue; the
service has no fault port of its own.  Its :class:`ChaosInjector`,
driven by a seeded RNG:

- **kills workers mid-prove** (the wrapped runner raises
  :class:`~repro.service.scheduler.WorkerKilled`, the thread-death
  model the supervisor must recover from),
- **duplicates queue pops** (two workers receive the same job;
  :meth:`~repro.service.jobs.Job.claim` must make that harmless),
- **delays pops** (widening the race windows the atomic state machine
  has to close),
- and, in the crash scenario, **tears the journal tail** the way a
  process dying between ``write()`` and completion would.

:func:`scenario_runner_kill` needs no injector: it SIGKILLs a worker's
runner process mid-prove, for real.  Each scenario runs over a real
(small-``k``) session and asserts the service's core invariants:

1. no accepted job is ever lost (every submitted job reaches a
   terminal state with its waiter released),
2. no job completes twice (``Job.completions == 1``),
3. recovered and retried proofs are **byte-identical** to the
   journaled/baseline digests under their pinned ``rng_seed``,
4. the worker farm returns to full strength after every kill, and a
   closed or aborted service leaves no runner process behind.

``tests/test_chaos.py`` runs every scenario, plus a real SIGKILL of a
journaled service in a child process (``tests/chaos_victim.py``);
``benchmarks/bench_chaos.py`` reuses the fixture session and its
baseline digests.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from contextlib import suppress
from pathlib import Path
from typing import Any

from repro.config import ProverConfig, ServiceConfig
from repro.errors import ServiceClosed
from repro.service.jobs import JobState
from repro.service.journal import encode_record
from repro.service.scheduler import WorkerKilled, response_digest
from repro.service.service import ProvingService

#: The chaos workload: small aggregates over the tiny fixture table,
#: each with a pinned blinding seed so every proof is byte-reproducible.
CHAOS_QUERIES: tuple[tuple[str, int], ...] = (
    ("select sum(v) as s from t where v < 40", 0x5EED0),
    ("select count(*) as n from t", 0x5EED1),
    ("select sum(v) as s from t", 0x5EED2),
)


class ChaosInjector:
    """Seeded fault decisions, consulted by a :class:`ChaosService`'s
    wrapped runners and queue views.

    All knobs are *budgets*: ``kills`` worker deaths (only ever on a
    job's first attempt, so bounded retries always converge),
    ``dup_pops`` duplicated queue pops, ``delayed_pops`` pops slowed by
    a seeded fraction of ``max_delay`` seconds.  Thread-safe; every
    decision is logged in ``events`` for the suite's report.
    """

    def __init__(
        self,
        seed: int,
        kills: int = 0,
        dup_pops: int = 0,
        delayed_pops: int = 0,
        max_delay: float = 0.01,
    ):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.kills_left = kills
        self.dups_left = dup_pops
        self.delays_left = delayed_pops
        self.max_delay = max_delay
        self.events: list[str] = []

    # -- decisions the wrappers ask for ---------------------------------

    def on_prove(self, job, worker: str) -> None:
        """Called as ``worker``'s runner starts proving ``job`` (a
        :class:`~repro.service.jobs.JobStatus`); may raise
        :class:`WorkerKilled` to take the worker thread down."""
        with self._lock:
            if self.kills_left <= 0 or job.attempts > 0:
                return
            self.kills_left -= 1
            self.events.append(f"kill {worker} proving {job.job_id}")
        raise WorkerKilled(f"chaos: killing {worker} mid-prove")

    def duplicate_pop(self, job) -> bool:
        with self._lock:
            if self.dups_left <= 0:
                return False
            self.dups_left -= 1
            self.events.append(f"dup pop {job.job_id}")
            return True

    def pop_delay(self, job) -> float:
        with self._lock:
            if self.delays_left <= 0:
                return 0.0
            self.delays_left -= 1
            delay = self._rng.random() * self.max_delay
            self.events.append(f"delay pop {job.job_id} {delay:.4f}s")
            return delay


class ChaosService(ProvingService):
    """A proving service whose workers run into ``chaos``'s faults."""

    def __init__(self, session, config: ServiceConfig, chaos: ChaosInjector):
        self.chaos = chaos  # read by _spawn_worker, which __init__ calls
        super().__init__(session, config)

    def _spawn_worker(self, index: int):
        worker = super()._spawn_worker(index)
        worker._runner = _KillingRunner(worker._runner, self, worker.name)
        worker._queue = _ChaosQueue(worker._queue, self.chaos)
        return worker


class _KillingRunner:
    """A worker's runner that asks the injector before every prove."""

    def __init__(self, runner, service: ChaosService, worker: str):
        self._runner = runner
        self._service = service
        self._worker = worker

    def __getattr__(self, name: str):
        return getattr(self._runner, name)

    def run(self, request, on_span):
        status = self._service.status(request.job_id)
        self._service.chaos.on_prove(status, self._worker)
        return self._runner.run(request, on_span)


class _ChaosQueue:
    """A worker's view of the service queue: a pop may leave a second
    copy of its job behind, for another worker (``Job.claim`` must make
    that harmless), or be slowed down."""

    def __init__(self, queue, chaos: ChaosInjector):
        self._queue = queue
        self._chaos = chaos

    def __getattr__(self, name: str):
        return getattr(self._queue, name)

    def pop(self, timeout: float | None = None):
        job = self._queue.pop(timeout)
        if job is None:
            return None
        if self._chaos.duplicate_pop(job):
            with suppress(ServiceClosed):
                self._queue.push(job, force=True)
        delay = self._chaos.pop_delay(job)
        if delay > 0:
            time.sleep(delay)
        return job


# -- the tiny real-crypto fixture ---------------------------------------------


def build_session(k: int = 6):
    """A committed session over the five-row fixture table -- the same
    shape the service tests use, kept here so the suite is runnable
    straight from the CLI."""
    from repro.api import PoneglyphDB
    from repro.db import ColumnDef, Database, TableSchema
    from repro.db.types import INT, STRING

    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [ColumnDef("a", INT), ColumnDef("grp", STRING), ColumnDef("v", INT)],
            primary_key="a",
        ),
        [
            (1, "x", 10),
            (2, "y", 20),
            (3, "x", 30),
            (4, "y", 40),
            (5, "x", 50),
        ],
    )
    config = ProverConfig(
        k=k, limb_bits=4, value_bits=16, key_bits=16, use_cache=False,
        telemetry=True,
    )
    session = PoneglyphDB.open(db, config)
    session.commit()
    return session


def baseline_digests(session) -> dict[str, str]:
    """Synchronous-path proof digests for :data:`CHAOS_QUERIES` --
    the byte-identity ground truth every scenario compares against."""
    from repro.algebra.field import deterministic_rng

    digests: dict[str, str] = {}
    for sql, seed in CHAOS_QUERIES:
        with deterministic_rng(seed):
            digests[sql] = response_digest(session.prove(sql))
    return digests


# -- invariant checks ---------------------------------------------------------


def _assert_invariants(
    service, expected: dict[str, str], scenario: str
) -> None:
    """The suite's core contract, checked after every scenario: no job
    lost, none double-completed, every proof byte-identical."""
    with service._lock:
        jobs = list(service._jobs.values())
    for job in jobs:
        assert job.state.finished and job.done.is_set(), (
            f"{scenario}: {job.job_id} lost in state {job.state.value}"
        )
        assert job.completions == 1, (
            f"{scenario}: {job.job_id} completed {job.completions} times"
        )
        if job.state == JobState.DONE:
            assert job.result_digest == expected[job.sql], (
                f"{scenario}: {job.job_id} proof digest "
                f"{job.result_digest} != baseline {expected[job.sql]}"
            )


def _submit_all(service, deadline: float = 300.0) -> list:
    job_ids = [
        service.submit(sql, rng_seed=seed) for sql, seed in CHAOS_QUERIES
    ]
    for job_id in job_ids:
        service.wait(job_id, timeout=deadline)
    return job_ids


# -- scenarios ----------------------------------------------------------------


def scenario_worker_kill(session, expected, seed: int) -> dict[str, Any]:
    """A worker thread dies mid-prove; the supervisor must hand the
    orphaned job to the retry policy and respawn the worker, and the
    retried proof must still be byte-identical."""
    chaos = ChaosInjector(seed, kills=2)
    config = ServiceConfig(workers=2, max_retries=2)
    with ChaosService(session, config, chaos) as service:
        _submit_all(service)
        deadline = time.time() + 30
        while service.workers_restarted < 2 and time.time() < deadline:
            time.sleep(0.01)
        _assert_invariants(service, expected, "worker-kill")
        health = service.health()
        assert service.workers_restarted >= 2, (
            f"worker-kill: only {service.workers_restarted} respawns"
        )
        assert all(
            info["alive"] for info in health["workers"].values()
        ), "worker-kill: farm not back at full capacity"
        assert len(health["workers"]) == config.workers
        return {
            "kills": 2 - chaos.kills_left,
            "workers_restarted": service.workers_restarted,
            "events": list(chaos.events),
        }


def runner_processes() -> list:
    """This process's live runner processes (the forked workers of every
    open service)."""
    return [
        child for child in multiprocessing.active_children()
        if child.name.endswith("-runner")
    ]


def scenario_runner_kill(session, expected) -> dict[str, Any]:
    """A real process death: worker 1's runner is SIGKILLed mid-prove.

    The worker reads EOF and dies with its job; the supervisor must
    retry the orphan and respawn the worker with a fresh runner, the
    retried proof must be byte-identical, and neither ``close()`` nor
    ``abort()`` may leave a runner process behind."""
    config = ServiceConfig(workers=2, max_retries=2)
    with ProvingService(session, config) as service:
        victim_pid = service.health()["workers"]["prover-worker-1"]["pid"]
        job_ids = [
            service.submit(sql, rng_seed=s) for sql, s in CHAOS_QUERIES
        ]
        victim = None
        deadline = time.time() + 60
        while victim is None and time.time() < deadline:
            for status in map(service.status, job_ids):
                # An open prove span: the runner is mid-prove.
                if status.worker == "prover-worker-1" and status.span_path:
                    victim = status.job_id
            time.sleep(0.001)
        assert victim is not None, "runner-kill: worker 1 never proved"
        os.kill(victim_pid, signal.SIGKILL)
        for job_id in job_ids:
            service.wait(job_id, timeout=300)
        _assert_invariants(service, expected, "runner-kill")
        assert service.status(victim).attempts == 1, (
            "runner-kill: the orphaned job was not retried exactly once"
        )
        health = service.health()
        restarted = service.workers_restarted
        assert restarted == 1, f"runner-kill: {restarted} respawns"
        assert health["healthy"], "runner-kill: farm not back at full strength"
        assert len(health["workers"]) == config.workers
        assert health["workers"]["prover-worker-1"]["pid"] != victim_pid
    assert not runner_processes(), "runner-kill: close() left a runner"
    aborted = ProvingService(session, config)
    aborted.abort()
    assert not runner_processes(), "runner-kill: abort() left a runner"
    return {
        "killed_pid": victim_pid,
        "victim": str(victim),
        "workers_restarted": restarted,
    }


def scenario_duplicate_pops(session, expected, seed: int) -> dict[str, Any]:
    """The queue hands the same job to two workers (duplicated pop) and
    slows others down; ``Job.claim`` must serialize them so each job
    still completes exactly once."""
    chaos = ChaosInjector(seed, dup_pops=2, delayed_pops=3, max_delay=0.02)
    config = ServiceConfig(workers=2)
    with ChaosService(session, config, chaos) as service:
        _submit_all(service)
        _assert_invariants(service, expected, "duplicate-pop")
        return {"events": list(chaos.events)}


def scenario_crash_recovery(
    session, expected, seed: int, workdir: Path
) -> dict[str, Any]:
    """Crash between journal appends, then recover.

    Incarnation one journals every transition, completes one job, and
    is ``abort()``-ed (no graceful drain -- queued jobs stay queued,
    exactly like a dead process).  The journal tail is then torn by
    appending a partial frame, the byte pattern of a process dying
    mid-``write``.  Incarnation two must replay the journal, tolerate
    the torn tail, re-enqueue every non-terminal job *and* the
    completed one (its response only lived in memory), and re-prove
    them all byte-identically -- the completed job against the digest
    journaled before the crash.
    """
    journal_path = workdir / f"chaos-{seed}.journal"
    rng = random.Random(seed)

    service = ProvingService(
        session,
        ServiceConfig(workers=1),
        journal_path=journal_path,
    )
    first_sql, first_seed = CHAOS_QUERIES[0]
    first = service.submit(first_sql, rng_seed=first_seed)
    done_digest = response_digest(service.wait(first, timeout=300))
    assert done_digest == expected[first_sql]
    queued = [
        service.submit(sql, rng_seed=s) for sql, s in CHAOS_QUERIES[1:]
    ]
    service.abort()  # the crash: no drain, no cancels, journal just stops

    # Tear the tail: a partial frame, cut at a seeded offset, exactly
    # what a mid-append death leaves behind.
    torn_frame = encode_record(
        {"rec": "running", "job": str(queued[0]), "worker": "prover-worker-0"}
    )
    cut = rng.randrange(1, len(torn_frame))
    with open(journal_path, "ab") as handle:
        handle.write(torn_frame[:cut])

    with ProvingService(
        session,
        ServiceConfig(workers=2),
        journal_path=journal_path,
    ) as recovered:
        assert recovered.replay is not None
        assert recovered.replay.torn_tail_bytes == cut
        assert recovered.recovered_jobs == 3, (
            f"crash-recovery: {recovered.recovered_jobs} of 3 jobs recovered"
        )
        done_job = recovered._get(first)
        assert done_job.expected_digest == done_digest
        for job_id in [first, *queued]:
            recovered.wait(job_id, timeout=300)
        _assert_invariants(recovered, expected, "crash-recovery")
        return {
            "torn_tail_bytes": cut,
            "recovered_jobs": recovered.recovered_jobs,
            "replayed_records": recovered.replay.records,
        }


def scenario_cache_corruption(seed: int, workdir: Path) -> dict[str, Any]:
    """Artifact-cache files are damaged at seeded offsets; every read
    must detect the damage, evict, and recompute -- corruption degrades
    to a rebuild, never to a wrong artifact."""
    from repro.cache import ArtifactCache, cache_key

    rng = random.Random(seed)
    cache = ArtifactCache(workdir / "chaos-cache")
    evictions = 0

    def fetch(i: int, payload: bytes) -> tuple[bytes, bool]:
        return cache.fetch(
            "chaos", (i,), lambda: payload, serialize=bytes, deserialize=bytes
        )

    for i in range(4):
        payload = bytes(range(32 + i))
        fetch(i, payload)
        path = cache.path_for(cache_key("chaos", i))
        raw = bytearray(path.read_bytes())
        if i % 2 == 0:
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(raw))
        else:
            path.write_bytes(bytes(raw[: rng.randrange(1, len(raw))]))
        rebuilt, hit = fetch(i, payload)
        assert not hit, f"cache-corruption: damaged artifact {i} served"
        assert rebuilt == payload
        evictions += 1
        value, hit = fetch(i, payload)
        assert hit and value == payload, (
            f"cache-corruption: artifact {i} not repaired on disk"
        )
    return {"corrupted": 4, "evicted": evictions}
