"""Figure 7: proof-generation time (left) and memory (right) for the
six TPC-H queries, PoneglyphDB vs ZKSQL, at 60k rows.

Paper shape: PoneglyphDB is comparable to interactive ZKSQL overall,
at least ~40% faster on Q1 and Q9 (fewer range-check/sort operations),
and uses 23-60% of ZKSQL's memory.

The ZKSQL comparison is not reproduced: ZKSQL's artifact is closed, so
there is no ZKSQL series to measure.  What runs here is our side,
measured: every query is compiled, witnessed and checked by the
MockProver at reduced scale, and the report prints those seconds and
the circuit's shape beside the paper's cited numbers.
"""

from repro.bench.harness import bench_metadata, measure_query_pipeline
from repro.bench.reporting import Report
from repro.tpch.queries import QUERIES

#: Table 4: PoneglyphDB's proving seconds at 60k rows.
PAPER_PONE_SECONDS = {"Q1": 180, "Q3": 161, "Q5": 313}


def test_fig7_vs_zksql(bench_config, benchmark):
    measurements = benchmark.pedantic(
        lambda: [
            measure_query_pipeline(bench_config, name) for name in QUERIES
        ],
        rounds=1,
        iterations=1,
    )

    report = Report("fig7_vs_zksql", "Figure 7: PoneglyphDB vs ZKSQL")
    report.line(
        f"measured at {bench_config.lineitem_rows} lineitem rows, "
        f"k={bench_config.k}: witness generation plus the MockProver "
        "check of every constraint, and the circuit's shape:"
    )
    report.table(
        [
            "query",
            "witness + check (s)",
            "advice cols",
            "lookups",
            "shuffles",
            "paper Pone @60k (s)",
        ],
        [
            (
                m.query,
                f"{m.witness_seconds + m.mock_seconds:.2f}",
                m.advice_columns,
                m.lookups,
                m.shuffles,
                PAPER_PONE_SECONDS.get(m.query, "-"),
            )
            for m in measurements
        ],
    )
    report.line(
        "\npaper (60k rows): Pone comparable to ZKSQL overall, >=40% faster "
        "on Q1/Q9; Pone memory 23-60% of ZKSQL's."
    )
    report.line(
        "ZKSQL is not reproduced: its artifact is closed, so no ZKSQL "
        "column is printed and no ratio to it is claimed."
    )
    report.emit(metadata=bench_metadata(bench_config))
