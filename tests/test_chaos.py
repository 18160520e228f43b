"""The fault-injection harness and real crash recovery.

Three layers, all real crypto (small ``k``):

- the in-process chaos scenarios (worker kills, a SIGKILLed runner
  process, duplicate pops, torn journal tails, cache corruption) from
  :mod:`repro.service.chaos`, each asserting the no-lost /
  no-double-completion / byte-identity invariants;
- the **SIGKILL end-to-end**: a child process opens a journaled
  service, reaches one job mid-prove with two more queued, and is
  killed with signal 9 -- then this process replays its journal and
  must recover all three jobs byte-identically;
- journal-on-close hygiene (a cleanly closed service leaves a journal
  whose replay has nothing pending).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import ServiceConfig
from repro.service import JobState, ProvingService, replay
from repro.service.chaos import (
    CHAOS_QUERIES,
    baseline_digests,
    build_session,
    scenario_cache_corruption,
    scenario_crash_recovery,
    scenario_duplicate_pops,
    scenario_runner_kill,
    scenario_worker_kill,
)
from repro.service.scheduler import response_digest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def chaos_env():
    """One committed small-``k`` session plus the synchronous-path
    baseline digests every scenario compares proofs against."""
    session = build_session(k=6)
    expected = baseline_digests(session)
    yield session, expected
    session.close()


class TestChaosScenarios:
    def test_worker_kill_supervisor_recovers(self, chaos_env):
        session, expected = chaos_env
        report = scenario_worker_kill(session, expected, seed=11)
        assert report["kills"] == 2
        assert report["workers_restarted"] >= 2

    def test_runner_kill_supervisor_recovers(self, chaos_env):
        session, expected = chaos_env
        report = scenario_runner_kill(session, expected)
        assert report["workers_restarted"] == 1

    def test_duplicate_pops_complete_exactly_once(self, chaos_env):
        session, expected = chaos_env
        report = scenario_duplicate_pops(session, expected, seed=12)
        assert any("dup pop" in event for event in report["events"])

    def test_crash_recovery_with_torn_tail(self, chaos_env, tmp_path):
        session, expected = chaos_env
        report = scenario_crash_recovery(session, expected, 13, tmp_path)
        assert report["recovered_jobs"] == 3
        assert report["torn_tail_bytes"] > 0

    def test_cache_corruption_self_heals(self, tmp_path):
        report = scenario_cache_corruption(14, tmp_path)
        assert report["evicted"] == report["corrupted"] == 4


class TestSigkillRecovery:
    """The acceptance scenario: a real process, really killed."""

    def test_sigkill_mid_prove_recovers_byte_identical(
        self, chaos_env, tmp_path
    ):
        session, expected = chaos_env
        journal_path = tmp_path / "victim.journal"
        child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.chaos",
                "--child",
                "--journal",
                str(journal_path),
            ],
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # The child prints READY once job 1 is RUNNING on its
            # single worker with jobs 2 and 3 still QUEUED.
            deadline = time.time() + 120
            ready = None
            while time.time() < deadline:
                line = child.stdout.readline()
                if line.startswith("READY"):
                    ready = json.loads(line[len("READY"):])
                    break
                if child.poll() is not None:  # pragma: no cover
                    pytest.fail(
                        f"child exited early: {child.stderr.read()}"
                    )
            assert ready is not None, "child never reported READY"
            assert len(ready["jobs"]) == 3
        finally:
            child.kill()  # SIGKILL: no atexit, no flush, no cleanup
            child.wait(timeout=30)

        # The journal alone must witness the kill-time shape: all three
        # accepted, >=2 still queued, >=1 taken by the worker.
        folded = replay(journal_path)
        states = [folded.jobs[j].state for j in ready["jobs"]]
        assert len(folded.jobs) == 3
        assert sum(1 for s in states if s == "submitted") >= 2
        assert sum(1 for s in states if s in ("running", "done")) >= 1
        assert [j.job_id for j in folded.pending()] == ready["jobs"]

        # Recover in this process and demand byte-identical proofs.
        with ProvingService.open(
            session,
            ServiceConfig(workers=2, supervisor_interval=0.02),
            journal_path=journal_path,
        ) as recovered:
            assert recovered.recovered_jobs == 3
            health = recovered.health()
            assert health["journal"]["recovered_jobs"] == 3
            by_sql = {sql: seed for sql, seed in CHAOS_QUERIES}
            for job_id in ready["jobs"]:
                response = recovered.wait(job_id, timeout=300)
                status = recovered.status(job_id)
                assert status.state == JobState.DONE
                assert status.recovered
                assert response_digest(response) == expected[status.sql]
                assert status.sql in by_sql

        # A second open on the now-completed journal has nothing left
        # to prove ... except that done responses only live in memory,
        # so they are re-proved and re-checked against their digests.
        folded = replay(journal_path)
        assert all(j.state == "done" for j in folded.jobs.values())
        assert all(j.digest == expected[j.sql] for j in folded.jobs.values())


class TestJournalLifecycle:
    def test_clean_close_journals_cancellations(self, chaos_env, tmp_path):
        """A graceful shutdown cancels queued jobs *in the journal
        too*: reopening must not resurrect them."""
        session, _ = chaos_env
        journal_path = tmp_path / "clean.journal"
        service = ProvingService(
            session,
            ServiceConfig(workers=1, supervisor_interval=0.05),
            journal_path=journal_path,
        )
        sql, seed = CHAOS_QUERIES[0]
        first = service.submit(sql, rng_seed=seed)
        service.wait(first, timeout=300)
        # Queue two more and close before a worker can take them.
        pending = [
            service.submit(s, rng_seed=x, priority=2)
            for s, x in CHAOS_QUERIES[1:]
        ]
        service.close()
        folded = replay(journal_path)
        states = {str(j): folded.jobs[str(j)].state for j in pending}
        # Cancelled-at-shutdown jobs are terminal in the journal...
        assert all(s in ("cancelled", "done") for s in states.values())
        # ...so only the done job (response in memory only) replays.
        assert all(
            j.state == "done" for j in folded.pending()
        )
