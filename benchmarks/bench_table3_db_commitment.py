"""Table 3: database commitment time over increasing data sizes.

Paper: 60k rows -> 2.89 s, 120k -> 5.53 s, 240k -> 10.94 s (near-linear
in database size; committed once, reused for every query).

We commit the full 8-table TPC-H database at three reduced scales and
check the same near-linear shape, then extrapolate per-row cost to the
paper's scales.  The scales sit in circuits of k = 7, 8 and 9, so each
step doubles both the rows and the committed domain.  Every scale's
fixed-base tables are built by an untimed commit first, so each timed
commit is a warm one.
"""

from repro import telemetry
from repro.bench import (
    BenchConfig,
    bench_cache,
    bench_metadata,
    perf_summary_lines,
)
from repro.bench.reporting import Report
from repro.commit.params import cached_setup
from repro.db.commitment import commit_database
from repro.tpch.datagen import generate


def _k_for(total_rows: int) -> int:
    return max(7, (total_rows - 1).bit_length() + 1)


def test_table3_db_commitment(benchmark):
    config = BenchConfig()
    cache = bench_cache()
    scales = [64, 128, 256]
    # The parameters are a deterministic artifact: the second run of
    # this bench loads them from the cache.
    dbs = {s: generate(s) for s in scales}
    ks = {s: _k_for(max(len(t) for t in dbs[s].tables.values())) for s in scales}
    params, _ = cached_setup(cache, max(ks.values()))

    def warm_every_scale():
        # One commit per scale: the truncated parameter set of each k
        # has a table set of its own, built here, not in the timings.
        for s in scales:
            commit_database(dbs[s], params, ks[s])

    benchmark.pedantic(warm_every_scale, rounds=1, iterations=1)

    measured = {}
    for s in scales:
        _, measured[s] = telemetry.time_call(
            lambda s=s: commit_database(dbs[s], params, ks[s])
        )

    paper = {60_000: 2.89, 120_000: 5.53, 240_000: 10.94}
    # Per-committed-cell cost from the largest measured run.
    db = dbs[scales[-1]]
    cells = sum(
        len(t) * len(t.schema.columns) for t in db.tables.values()
    )
    per_cell = measured[scales[-1]] / cells

    report = Report("table3_db_commitment", "Table 3: database commitment time")
    rows = [
        (f"{s} lineitem", f"{measured[s]:.2f}", "-", "measured") for s in scales
    ]
    for lineitem, paper_s in paper.items():
        est_cells = cells * lineitem / scales[-1]
        rows.append(
            (f"{lineitem:,} lineitem", f"{per_cell * est_cells:.0f}",
             paper_s, "extrapolated")
        )
    report.table(["database size", "this repo (s)", "paper (s)", "kind"], rows)
    doubling = measured[scales[2]] / measured[scales[1]]
    report.line(
        f"\nmeasured doubling ratio = {doubling:.2f} "
        "(paper: 5.53/2.89 = 1.91, 10.94/5.53 = 1.98 -- near-linear)"
    )
    for line in perf_summary_lines():
        report.line(line)
    report.emit(metadata=bench_metadata(config))
    assert 1.3 < doubling < 3.2
