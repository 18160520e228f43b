"""Table 2: public-parameter generation time vs maximal circuit rows.

Paper: 2^15 -> 104 s, 2^16 -> 221 s, 2^17 -> 410 s, 2^18 -> 832 s
(one-time, trusted-setup-free, reusable).  Expected shape: time roughly
doubles per k increment (linear in the number of generators).

We measure a cold open's one-time group work at k = 6..10 and
extrapolate it linearly to the paper's sizes.  Two parts, each in its
own column: generating the parameters is hash-to-curve and nothing
else (the hashed generators are the Lagrange basis the columns are
committed in, so no basis is derived from them), and the fixed-base
table build sums ``g`` into one more base and doubles the ``n + 3``
bases through 16 windows and adds their endomorphism images.  The
report footer also checks the artifact cache (the second fetch of the
same parameters must be a HIT served from disk).
"""

from repro import telemetry
from repro.bench import (
    BenchConfig,
    bench_cache,
    bench_metadata,
    perf_summary_lines,
)
from repro.bench.reporting import Report
from repro.commit import setup
from repro.commit.params import cached_setup
from repro.ecc import fixed_base


def test_table2_public_params(benchmark):
    config = BenchConfig()
    measured = {}

    def generate_k8():
        return setup(8, label=b"bench-t2")

    benchmark.pedantic(generate_k8, rounds=1, iterations=1)

    generated, built = {}, {}
    for k in (6, 7, 8, 9, 10):
        params, generated[k] = telemetry.time_call(
            lambda: setup(k, label=b"bench-t2-%d" % k)
        )
        _, built[k] = telemetry.time_call(
            lambda: fixed_base.tables_for_params(params)
        )
        measured[k] = generated[k] + built[k]

    # Linear model: seconds per generator from the largest measured run.
    top = max(measured)
    per_generator = {
        part: seconds[top] / (1 << top) for part, seconds in
        (("params", generated), ("tables", built))
    }

    paper = {15: 104, 16: 221, 17: 410, 18: 832}
    report = Report("table2_public_params", "Table 2: public parameter generation")
    rows = []
    for k, seconds in measured.items():
        rows.append((
            f"2^{k}", f"{generated[k]:.3f}", f"{built[k]:.3f}",
            f"{seconds:.3f}", "-", "measured",
        ))
    for k, paper_seconds in paper.items():
        params_s = per_generator["params"] * (1 << k)
        tables_s = per_generator["tables"] * (1 << k)
        rows.append((
            f"2^{k}", f"{params_s:.0f}", f"{tables_s:.0f}",
            f"{params_s + tables_s:.0f}", paper_seconds, "extrapolated",
        ))
    report.table(
        ["max rows", "params (s)", "tables (s)", "total (s)", "paper (s)", "kind"],
        rows,
    )
    # Shape check: doubling k doubles the cost (within tolerance).
    ratio = measured[9] / measured[8]
    report.line(f"\nmeasured 2^9/2^8 ratio = {ratio:.2f} (paper's table: ~2.0)")

    # Artifact cache: a cold fetch builds and stores, a second fetch of
    # the identical description must come back from disk as a HIT.
    cache = bench_cache()
    params_a, first_hit = cached_setup(cache, config.k, label=b"bench-t2-cache")
    params_b, second_hit = cached_setup(cache, config.k, label=b"bench-t2-cache")
    assert second_hit or not cache.enabled
    assert params_a.g == params_b.g and params_a.w == params_b.w

    for line in perf_summary_lines():
        report.line(line)
    report.emit(metadata=bench_metadata(config))
    assert 1.4 < ratio < 2.8
