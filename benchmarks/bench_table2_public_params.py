"""Table 2: public-parameter generation time vs maximal circuit rows.

Paper: 2^15 -> 104 s, 2^16 -> 221 s, 2^17 -> 410 s, 2^18 -> 832 s
(one-time, trusted-setup-free, reusable).  Expected shape: time roughly
doubles per k increment (linear in the number of generators).

We measure generation at k = 6..9 and extrapolate the per-generator
cost linearly to the paper's sizes.  The report footer also measures
the parallel backend (serial vs ``workers`` generation of the largest
size) and the artifact cache (the second fetch of the same parameters
must be a HIT served from disk).
"""

from repro import telemetry
from repro.bench import (
    BenchConfig,
    bench_cache,
    bench_metadata,
    perf_summary_lines,
    serial_vs_parallel,
)
from repro.bench.reporting import Report
from repro.commit import setup
from repro.commit.params import cached_setup


def test_table2_public_params(benchmark):
    config = BenchConfig()
    measured = {}

    def generate_k8():
        return setup(8, label=b"bench-t2")

    benchmark.pedantic(generate_k8, rounds=1, iterations=1)

    for k in (6, 7, 8, 9):
        _, measured[k] = telemetry.time_call(
            lambda: setup(k, label=b"bench-t2-%d" % k)
        )

    # Linear model: seconds per generator from the largest measured run.
    per_generator = measured[9] / (1 << 9)

    paper = {15: 104, 16: 221, 17: 410, 18: 832}
    report = Report("table2_public_params", "Table 2: public parameter generation")
    rows = []
    for k, seconds in measured.items():
        rows.append((f"2^{k}", f"{seconds:.3f}", "-", "measured"))
    for k, paper_seconds in paper.items():
        estimate = per_generator * (1 << k)
        rows.append((f"2^{k}", f"{estimate:.0f}", paper_seconds, "extrapolated"))
    report.table(
        ["max rows", "this repo (s)", "paper (s)", "kind"], rows
    )
    # Shape check: doubling k doubles the cost (within tolerance).
    ratio = measured[9] / measured[8]
    report.line(f"\nmeasured 2^9/2^8 ratio = {ratio:.2f} (paper's table: ~2.0)")

    # Parallel backend: derive the 2^9 generators serially vs with
    # workers; results are bit-identical, only the wall clock moves.
    speedups = {}
    if config.workers > 1:
        speedups["setup 2^9"] = serial_vs_parallel(
            lambda: setup(9, label=b"bench-t2-par"), config.workers
        )

    # Artifact cache: a cold fetch builds and stores, a second fetch of
    # the identical description must come back from disk as a HIT.
    cache = bench_cache()
    params_a, first_hit = cached_setup(cache, config.k, label=b"bench-t2-cache")
    params_b, second_hit = cached_setup(cache, config.k, label=b"bench-t2-cache")
    assert second_hit or not cache.enabled
    assert params_a.g == params_b.g and params_a.w == params_b.w

    for line in perf_summary_lines(config, speedups):
        report.line(line)
    report.emit(metadata=bench_metadata(config))
    assert 1.4 < ratio < 2.8
