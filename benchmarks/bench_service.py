"""Proving-service throughput and batch-verification amortization.

Drives the async service end to end at reduced scale: N jobs of a
small TPC-H query are pushed through a worker farm (throughput in
proofs/min, warm-key hit rate), then the resulting batch is verified
twice -- sequentially and through ``batch_verify``'s shared recursion
accumulator -- to measure the per-proof amortization of the deferred
base-folding MSMs.

Runs standalone (``python benchmarks/bench_service.py [--jobs N]
[--workers W] [--check]``) or under pytest.  ``--check`` exits nonzero
unless every proof verifies, the batch accepts, and the batch deferred
exactly ``jobs x 1`` base-folding MSMs (one IPA opening per proof,
whatever its rotations) into its one finalize -- the CI verification-smoke job gates on it.  The timings
are reported, not raced: a lone ``verify`` is a batch of one, so what
batching saves per proof is one ``n``-point fold, which is noise on a
shared runner.  Results persist to
``benchmarks/results/service.{txt,json}``.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import PoneglyphDB
from repro.bench.harness import (
    BenchConfig,
    bench_metadata,
    prover_config,
    timed,
    tpch_db,
)
from repro.bench.reporting import Report
from repro.bench import trend
from repro.config import ServiceConfig

#: Small enough to prove N times in a smoke job, real enough to carry
#: scan links, a filter, and an aggregate (same query shape the
#: soundness suite attacks).
SQL = "select count(*) as n from nation where n_regionkey >= 2"


def run_service_bench(jobs: int = 8, workers: int = 2) -> dict:
    config = BenchConfig(k=7, lineitem_rows=64)
    db = tpch_db(config)
    session = PoneglyphDB.open(db, prover_config(config))
    try:
        session.commit()
        with session.serve(ServiceConfig(workers=workers)) as service:
            def push_and_drain():
                ids = [service.submit(SQL) for _ in range(jobs)]
                return [service.wait(job_id, timeout=3600) for job_id in ids]

            responses, wall_s = timed(push_and_drain)
            stats = service.stats()
        warm_hits = sum(
            response.timing.extra.get("keygen_warm_hit", 0.0)
            for response in responses
        )

        verifier = session.verifier()
        # Warm the verifier's memoized vk so both timed paths measure
        # verification, not key generation.
        verifier.verify(responses[0]).require()

        def sequential():
            return [verifier.verify(response) for response in responses]

        seq_reports, seq_s = timed(sequential)
        batch_report, batch_s = timed(lambda: verifier.batch_verify(responses))
    finally:
        session.close()

    return {
        "jobs": jobs,
        "workers": workers,
        "wall_seconds": wall_s,
        "proofs_per_min": 60.0 * jobs / wall_s if wall_s else float("inf"),
        "keygen_warm_hits": int(warm_hits),
        "shed_count": stats["shed_count"],
        "sequential_s": seq_s,
        "sequential_per_proof_s": seq_s / jobs,
        "batch_s": batch_s,
        "batch_per_proof_s": batch_s / jobs,
        "amortization": seq_s / batch_s if batch_s else float("inf"),
        "deferred_openings": batch_report.deferred_openings,
        "expected_deferred_openings": jobs,  # one opening per proof
        "finalize_s": batch_report.finalize_seconds,
        "all_sequential_accepted": all(r.accepted for r in seq_reports),
        "batch_accepted": batch_report.accepted,
    }


def emit_report(result: dict) -> Report:
    report = Report("service", "Async proving service: throughput + batch verify")
    report.line(
        f"{result['jobs']} jobs x 1 query shape through {result['workers']} "
        f"workers: {result['wall_seconds']:.1f}s wall = "
        f"{result['proofs_per_min']:.1f} proofs/min "
        f"({result['keygen_warm_hits']} warm-key hits, "
        f"{result['shed_count']} shed)\n"
    )
    report.table(
        ["verification path", "total s", "per-proof s"],
        [
            (
                "sequential",
                f"{result['sequential_s']:.2f}",
                f"{result['sequential_per_proof_s']:.3f}",
            ),
            (
                "batched (shared accumulator)",
                f"{result['batch_s']:.2f}",
                f"{result['batch_per_proof_s']:.3f}",
            ),
        ],
    )
    report.line(
        f"\namortization: {result['amortization']:.2f}x -- "
        f"{result['deferred_openings']} base-folding MSMs folded into one "
        f"{result['finalize_s']:.2f}s finalize."
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the batch accepts with every opening deferred",
    )
    args = parser.parse_args(argv)

    result = run_service_bench(jobs=args.jobs, workers=args.workers)
    report = emit_report(result)
    config = BenchConfig(k=7, lineitem_rows=64)
    report.emit(
        metadata={**bench_metadata(config), "service": result}
    )

    if not (result["all_sequential_accepted"] and result["batch_accepted"]):
        print("CHECK FAILED: a proof was rejected", file=sys.stderr)
        return 1
    if args.check:
        if result["deferred_openings"] != result["expected_deferred_openings"]:
            print(
                f"CHECK FAILED: batch deferred {result['deferred_openings']} "
                f"openings, expected {result['expected_deferred_openings']} "
                "(one per job)",
                file=sys.stderr,
            )
            return 1
        regressions = trend.track(
            "service",
            {
                "wall_seconds": result["wall_seconds"],
                "proofs_per_min": result["proofs_per_min"],
                "sequential_per_proof_s": result["sequential_per_proof_s"],
                "batch_per_proof_s": result["batch_per_proof_s"],
            },
            directions={"proofs_per_min": "higher"},
        )
        if trend.report_regressions(regressions):
            return 1
        print(
            f"CHECK OK: {result['deferred_openings']} openings settled by one "
            f"finalize ({result['batch_per_proof_s']:.3f}s/proof batched, "
            f"{result['sequential_per_proof_s']:.3f}s/proof sequential)"
        )
    return 0


def test_service_bench_smoke():
    """Pytest entry: a 2-job run must verify both ways."""
    result = run_service_bench(jobs=2, workers=2)
    assert result["all_sequential_accepted"] and result["batch_accepted"]
    assert result["deferred_openings"] == result["expected_deferred_openings"]


if __name__ == "__main__":
    sys.exit(main())
