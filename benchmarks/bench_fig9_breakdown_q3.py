"""Figure 9: proof-generation breakdown for Q3.

Paper: Q3 applies three filters, two joins, a group-by, an order-by and
an aggregation; the filters and joins dominate (record-by-record
condition checks and key alignment).  Same method as Figure 8: the
stage table is read off the telemetry span tree of the real prove.
"""

from repro.bench.harness import bench_metadata, real_prove_query
from repro.bench.reporting import Report

STAGES = [
    ("compile", "compile circuit"),
    ("witness", "witness generation"),
    ("keygen", "keygen"),
    ("commit_advice", "commit advice columns"),
    ("lookup_commit", "lookup arguments (3 filters + join membership)"),
    ("grand_products", "shuffle products + lookup sums (joins/sort)"),
    ("quotient", "quotient (gates)"),
    ("evaluations", "evaluations at x"),
    ("multiopen", "multiopen (IPA)"),
]


def test_fig9_breakdown_q3(bench_config, tpch_system, benchmark):
    prover, verifier = tpch_system
    response, _report = benchmark.pedantic(
        lambda: real_prove_query(bench_config, "Q3", prover, verifier),
        rounds=1,
        iterations=1,
    )
    breakdown = response.report
    assert breakdown is not None, "bench telemetry should be on by default"
    assert breakdown["phase_coverage"] >= 0.95
    phases = breakdown["phases"]
    total = breakdown["total_seconds"] or 1.0

    report = Report("fig9_breakdown_q3", "Figure 9: Q3 proof-generation breakdown")
    report.line(
        f"reduced scale: {bench_config.lineitem_rows} lineitem rows, "
        f"k={bench_config.k}; total prove = {total:.1f}s "
        f"(span coverage {breakdown['phase_coverage']:.0%}); "
        f"proof = {response.proof_size_bytes / 1024:.1f} KB\n"
    )
    report.table(
        ["stage", "seconds", "share"],
        [
            (label, f"{phases.get(key, 0.0):.2f}", f"{phases.get(key, 0.0) / total:.0%}")
            for key, label in STAGES
        ],
    )
    counters = breakdown["counters"]
    report.line(
        f"\ncrypto work: {counters.get('msm.points', 0):,.0f} MSM points in "
        f"{counters.get('msm.calls', 0):,.0f} MSMs, "
        f"{counters.get('fft.calls', 0):,.0f} FFTs, "
        f"{counters.get('lookup.rows', 0):,.0f} lookup rows."
    )
    report.line(
        "\npaper shape: filters and joins dominate Q3's gate work "
        "(per-record comparisons + key alignment)."
    )
    report.emit(metadata=bench_metadata(bench_config, breakdown["counters"]))
    assert total > 0
