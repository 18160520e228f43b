"""Figure 10: proving time and memory over increasing database sizes.

Paper (Q1): 180 s / 1.53 GB at 60k rows growing near-linearly to
683 s / 5.12 GB at 240k rows; all six queries scale similarly because
circuit size grows linearly in the inputs and all constraints are
low degree.

We measure the full pipeline (witness + constraint check) of every
query at three reduced scales, doubling the lineitem rows and the
circuit size together, and print the paper's Q1 figures beside them.
Memory is not measured per cell here.
"""

from repro.bench.harness import BenchConfig, bench_metadata, measure_query_pipeline
from repro.bench.reporting import Report
from repro.tpch.queries import QUERIES

#: Lineitem rows of each scale, in a circuit of ``2^(8 + index)`` rows
#: (Q8 and Q9's calendar table does not fit below k=8).
SCALES = [64, 128, 256]
#: The paper's Q1 at 60k and 240k rows (a 4x row span).
PAPER_Q1_SECONDS = {60_000: 180, 240_000: 683}
PAPER_Q1_MEMORY_GB = {60_000: 1.53, 240_000: 5.12}


def test_fig10_scalability(benchmark):
    configs = {
        s: BenchConfig(lineitem_rows=s, k=8 + i) for i, s in enumerate(SCALES)
    }

    def measure_all():
        out = {}
        for s, config in configs.items():
            out[s] = {name: measure_query_pipeline(config, name) for name in QUERIES}
        return out

    # One untimed pass per query first: its first-use costs (datagen,
    # compile caches) would otherwise land on the smallest scale.
    for name in QUERIES:
        measure_query_pipeline(configs[SCALES[0]], name)
    measured = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    def seconds(s, name):
        m = measured[s][name]
        return m.witness_seconds + m.mock_seconds

    report = Report("fig10_scalability", "Figure 10: scalability over data size")
    report.line(
        "measured seconds, witness generation plus the MockProver check "
        "of every constraint, and the growth over the 4x row span:"
    )
    report.table(
        ["query"]
        + [f"{s} rows (k={configs[s].k})" for s in SCALES]
        + [f"{SCALES[-1]}/{SCALES[0]}"],
        [
            [name]
            + [f"{seconds(s, name):.2f}" for s in SCALES]
            + [f"{seconds(SCALES[-1], name) / seconds(SCALES[0], name):.2f}x"]
            for name in QUERIES
        ],
    )
    paper_ratio = PAPER_Q1_SECONDS[240_000] / PAPER_Q1_SECONDS[60_000]
    report.line(
        f"\npaper (Q1): {PAPER_Q1_SECONDS[60_000]} s -> "
        f"{PAPER_Q1_SECONDS[240_000]} s ({paper_ratio:.2f}x) and "
        f"{PAPER_Q1_MEMORY_GB[60_000]} GB -> {PAPER_Q1_MEMORY_GB[240_000]} GB "
        "from 60k to 240k rows, near-linear."
    )
    report.emit(metadata=bench_metadata(configs[SCALES[-1]]))

    # Shape: Q1's measured seconds grow near-linearly over the 4x row
    # span, as the paper's do.
    q1_ratio = seconds(SCALES[-1], "Q1") / seconds(SCALES[0], "Q1")
    assert 2.5 < q1_ratio < 5.0
