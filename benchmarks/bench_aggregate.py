"""Aggregated verification: per-proof cost vs batch size.

Proves one small TPC-H query, folds N copies of the claim into a
single ``AggProof`` (the ``PDBA`` envelope), and times
``VerifierNode.verify_aggregate`` across batch sizes: every entry
replays its cheap logarithmic checks, but all the linear-time
base-folding MSMs settle in **one** fixed-base accumulator finalize,
so the per-proof verify time falls as the batch grows -- extending the
service bench's 8-proof amortization measurement out to 16/32.

Also exercises the two soundness edges the CI smoke gates on: a
tampered aggregate must be rejected with the failure attributed to the
tampered entry, and an honest aggregate must round-trip through its
wire bytes.

Runs standalone (``python benchmarks/bench_aggregate.py [--sizes
1,2,4,8,...] [--check]``) or under pytest.  ``--check`` exits nonzero
unless honest aggregates accept at every size with exactly ``batch x
1`` base-folding MSMs (one IPA opening per proof) deferred into the one
finalize, and
the tampered aggregate is rejected with attribution.  The timings are
reported, not raced: a lone ``verify`` is a batch of one, so what an
aggregate saves per proof is one ``n``-point fold, which is noise on a
shared runner.  Results persist to
``benchmarks/results/aggregate.{txt,json}``.
"""

from __future__ import annotations

import argparse
import copy
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

#: Same query shape the service bench and the soundness suite use.
SQL = "select count(*) as n from nation where n_regionkey >= 2"

DEFAULT_SIZES = (1, 2, 4, 8, 16, 32)


def run_aggregate_bench(sizes: tuple[int, ...] = DEFAULT_SIZES) -> dict:
    config = BenchConfig(k=7, lineitem_rows=64)
    db = tpch_db(config)
    session = PoneglyphDB.open(db, prover_config(config))
    try:
        session.commit()
        response = session.prove(SQL)
        verifier = session.verifier()
        # Warm the memoized vk so every timed path measures
        # verification, not key generation.
        verifier.verify(response).require()

        _, sequential_s = timed(lambda: verifier.verify(response).require())

        batches = []
        for n in sizes:
            agg = session.aggregate([response] * n)
            data = agg.to_bytes()
            report, agg_s = timed(lambda data=data: verifier.verify_aggregate(data))
            batches.append(
                {
                    "batch": n,
                    "aggregate_bytes": len(data),
                    "total_s": agg_s,
                    "per_proof_s": agg_s / n,
                    "speedup_vs_sequential": (
                        sequential_s / (agg_s / n) if agg_s else float("inf")
                    ),
                    "accepted": report.accepted,
                    "deferred_openings": report.deferred_openings,
                    "expected_deferred_openings": n,  # one opening per proof
                    "finalize_s": report.finalize_seconds,
                }
            )

        # Soundness edge: one tampered proof inside the batch must
        # reject the aggregate AND be attributed to the right entry.
        tamper_n = min(4, max(sizes))
        forged = copy.deepcopy(session.aggregate([response] * tamper_n))
        flipped = bytearray(forged.entries[-1].proof_bytes)
        flipped[len(flipped) - 40] ^= 0x01
        forged.entries[-1].proof_bytes = bytes(flipped)
        tampered_report = verifier.verify_aggregate(forged.to_bytes())
        attribution = [rep.accepted for rep in tampered_report.reports]
    finally:
        session.close()

    return {
        "sizes": list(sizes),
        "sequential_per_proof_s": sequential_s,
        "batches": batches,
        "tampered_rejected": not tampered_report.accepted,
        "tampered_attribution_ok": (
            attribution == [True] * (tamper_n - 1) + [False]
        ),
    }


def emit_report(result: dict) -> Report:
    report = Report(
        "aggregate", "Aggregated verification: one MSM finalize per batch"
    )
    report.line(
        "sequential baseline: "
        f"{result['sequential_per_proof_s']:.3f}s per proof\n"
    )
    report.table(
        ["batch", "PDBA bytes", "total s", "per-proof s", "vs sequential"],
        [
            (
                str(row["batch"]),
                str(row["aggregate_bytes"]),
                f"{row['total_s']:.2f}",
                f"{row['per_proof_s']:.3f}",
                f"{row['speedup_vs_sequential']:.2f}x",
            )
            for row in result["batches"]
        ],
    )
    last = result["batches"][-1]
    report.line(
        f"\nbatch {last['batch']}: {last['deferred_openings']} base-folding "
        f"MSMs folded into one {last['finalize_s']:.2f}s finalize; tampered "
        "aggregate rejected with attribution: "
        f"{result['tampered_rejected'] and result['tampered_attribution_ok']}."
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=None,
        help="comma-separated batch sizes (default 1,2,4,8,16,32; "
        "--check defaults to 1,2,4,8)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless honest aggregates accept with every "
        "opening deferred and tampered ones reject with attribution",
    )
    args = parser.parse_args(argv)
    sizes = args.sizes or ((1, 2, 4, 8) if args.check else DEFAULT_SIZES)

    result = run_aggregate_bench(sizes)
    report = emit_report(result)
    config = BenchConfig(k=7, lineitem_rows=64)
    report.emit(metadata={**bench_metadata(config), "aggregate": result})

    failures = []
    if not all(row["accepted"] for row in result["batches"]):
        failures.append("an honest aggregate was rejected")
    if not result["tampered_rejected"]:
        failures.append("a tampered aggregate was ACCEPTED")
    if not result["tampered_attribution_ok"]:
        failures.append("tampered-entry attribution failed")
    for row in result["batches"]:
        if row["deferred_openings"] != row["expected_deferred_openings"]:
            failures.append(
                f"batch {row['batch']} deferred {row['deferred_openings']} "
                f"openings, expected {row['expected_deferred_openings']} "
                "(one per proof)"
            )
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    if args.check:
        from repro.bench import trend

        gate = max(n for n in sizes if n <= 8)
        gated = next(r for r in result["batches"] if r["batch"] == gate)
        regressions = trend.track(
            "aggregate",
            {
                "sequential_per_proof_s": result["sequential_per_proof_s"],
                f"batch{gate}_per_proof_s": gated["per_proof_s"],
            },
        )
        if trend.report_regressions(regressions):
            return 1
        best = result["batches"][-1]
        print(
            f"CHECK OK: batch {best['batch']} settled "
            f"{best['deferred_openings']} openings with one finalize "
            f"({best['per_proof_s']:.3f}s/proof, "
            f"{result['sequential_per_proof_s']:.3f}s sequential)"
        )
    return 0


def test_aggregate_bench_smoke():
    """Pytest entry: small sizes must accept and reject as specified."""
    result = run_aggregate_bench(sizes=(1, 2))
    assert all(row["accepted"] for row in result["batches"])
    assert all(
        row["deferred_openings"] == row["expected_deferred_openings"]
        for row in result["batches"]
    )
    assert result["tampered_rejected"] and result["tampered_attribution_ok"]


if __name__ == "__main__":
    sys.exit(main())
