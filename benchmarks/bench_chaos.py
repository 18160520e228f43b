"""Crash-recovery latency of the journaled proving service.

Measures the cost of the fault-tolerance machinery end to end:

- **journal overhead**: wall time for N jobs through a journaled
  service vs. the same workload unjournaled (the WAL appends ride the
  submit/finish paths);
- **recovery latency**: after an ``abort()`` (the in-process crash
  model) with completed, running, and queued jobs on the journal, how
  long a service opened on the journal takes to replay it and
  re-enqueue (``replay_seconds``), and how long until every recovered
  job has its byte-identical proof again (``recovery_total_seconds``).

Runs standalone (``python benchmarks/bench_chaos.py [--jobs N]``) or
under pytest.  It exits nonzero unless every recovered proof
byte-matches its journaled digest and every job comes back.  Results
persist to ``benchmarks/results/chaos.{txt,json}``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import telemetry
from repro.bench.reporting import Report
from repro.config import ServiceConfig
from repro.service.journal import replay

# The chaos fixture lives with the tests; standalone runs put the
# repository root on the path to reach it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.chaos import (  # noqa: E402
    CHAOS_QUERIES,
    ChaosService,
    baseline_digests,
    build_session,
)


def run_chaos_bench(jobs: int = 6, k: int = 6) -> dict:
    # Repeat the fixture queries with their pinned seeds: repeated
    # (sql, seed) pairs prove to identical bytes, so one baseline per
    # query covers every round.
    rounds = 1 + (jobs - 1) // len(CHAOS_QUERIES)
    workload = (list(CHAOS_QUERIES) * rounds)[:jobs]
    session = build_session(k=k)
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-chaos-"))
    journal_path = workdir / "bench.journal"
    try:
        expected = baseline_digests(session)

        def drain(service):
            ids = [service.submit(sql, rng_seed=s) for sql, s in workload]
            return [service.wait(job_id, timeout=3600) for job_id in ids]

        # Unjournaled baseline vs. journaled: the WAL's overhead.
        with session.serve(ServiceConfig(workers=2)) as service:
            _, plain_s = telemetry.time_call(lambda: drain(service))
        with session.serve(
            ServiceConfig(workers=2), journal_path=workdir / "overhead.journal"
        ) as service:
            _, journaled_s = telemetry.time_call(lambda: drain(service))

        # Build a crashed journal: one job done, the rest accepted but
        # unproved, then abort without drain (the crash model).
        service = ChaosService(
            session, ServiceConfig(workers=1), journal_path=journal_path
        )
        first_sql, first_seed = workload[0]
        done = service.submit(first_sql, rng_seed=first_seed)
        service.wait(done, timeout=3600)
        for sql, seed in workload[1:]:
            service.submit(sql, rng_seed=seed)
        service.abort()

        # Recovery: journal replay (parse + re-enqueue) and total time
        # back to a fully re-proved state.
        folded, replay_s = telemetry.time_call(lambda: replay(journal_path))

        def recover():
            with session.serve(
                ServiceConfig(workers=2), journal_path=journal_path
            ) as recovered:
                job_ids = list(recovered._jobs)
                responses = [
                    recovered.wait(job_id, timeout=3600)
                    for job_id in job_ids
                ]
                ok = all(
                    recovered._get(job_id).result_digest
                    == expected[recovered._get(job_id).sql]
                    for job_id in job_ids
                )
                return recovered.recovered_jobs, ok, len(responses)

        (recovered_jobs, byte_identical, reproved), recovery_s = (
            telemetry.time_call(recover)
        )
    finally:
        session.close()

    return {
        "jobs": jobs,
        "k": k,
        "plain_wall_seconds": plain_s,
        "journaled_wall_seconds": journaled_s,
        "journal_overhead_pct": (
            100.0 * (journaled_s - plain_s) / plain_s if plain_s else 0.0
        ),
        "journal_records": folded.records,
        "replay_seconds": replay_s,
        "recovered_jobs": recovered_jobs,
        "reproved_jobs": reproved,
        "recovery_total_seconds": recovery_s,
        "recovery_per_job_s": recovery_s / recovered_jobs,
        "byte_identical": byte_identical,
    }


def emit_report(result: dict) -> Report:
    report = Report(
        "chaos", "Crash recovery: journal overhead + recovery latency"
    )
    report.line(
        f"{result['jobs']} jobs (k={result['k']}): journaled "
        f"{result['journaled_wall_seconds']:.1f}s vs plain "
        f"{result['plain_wall_seconds']:.1f}s wall "
        f"({result['journal_overhead_pct']:+.1f}% WAL overhead)\n"
    )
    report.table(
        ["recovery stage", "value"],
        [
            ("journal records replayed", str(result["journal_records"])),
            ("replay (parse + fold)", f"{result['replay_seconds'] * 1e3:.2f} ms"),
            ("jobs recovered", str(result["recovered_jobs"])),
            (
                "back to fully proved",
                f"{result['recovery_total_seconds']:.2f} s "
                f"({result['recovery_per_job_s']:.2f} s/job)",
            ),
            ("byte-identical proofs", str(result["byte_identical"])),
        ],
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=6)
    parser.add_argument("--k", type=int, default=6)
    args = parser.parse_args(argv)

    result = run_chaos_bench(jobs=args.jobs, k=args.k)
    report = emit_report(result)
    report.emit(metadata={"chaos": result})

    if not result["byte_identical"]:
        print(
            "FAILED: a recovered proof did not byte-match its "
            "journaled digest",
            file=sys.stderr,
        )
        return 1
    if result["recovered_jobs"] != result["jobs"]:
        print(
            f"FAILED: recovered {result['recovered_jobs']} of "
            f"{result['jobs']} jobs",
            file=sys.stderr,
        )
        return 1
    return 0


# -- pytest entry -------------------------------------------------------------


def test_chaos_bench_smoke():
    result = run_chaos_bench(jobs=3)
    assert result["byte_identical"]
    assert result["recovered_jobs"] == 3
    emit_report(result)


if __name__ == "__main__":
    sys.exit(main())
